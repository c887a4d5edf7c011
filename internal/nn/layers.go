package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	Val  *Mat
	Grad *Mat
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Dense is a fully-connected layer: y = xW + b. It owns its output and
// input-gradient matrices and keeps a reference to its input.
type Dense struct {
	W, B *Param
	x    *Mat // cached input
	y    *Mat // output, reused across calls
	dx   *Mat // ∂L/∂input, reused across calls
}

// NewDense creates a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	w := NewMat(in, out)
	XavierInit(w, rng)
	return &Dense{
		W: &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), Val: w, Grad: NewMat(in, out)},
		B: &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), Val: NewMat(1, out), Grad: NewMat(1, out)},
	}
}

// Forward computes xW + b for a batch x (rows = samples).
func (d *Dense) Forward(x *Mat) *Mat {
	d.x = x
	d.y = MatMulInto(d.y, x, d.W.Val)
	for i := 0; i < d.y.R; i++ {
		row := d.y.Row(i)
		for j, b := range d.B.Val.Data {
			row[j] += b
		}
	}
	return d.y
}

// Backward accumulates dW = xᵀ·dOut, dB = Σrows dOut, returns dOut·Wᵀ.
func (d *Dense) Backward(dOut *Mat) *Mat { return d.backward(dOut, nil) }

// backward is Backward with the returned gradient gated by the mask of
// the ReLU that produced this layer's input (nil = ungated), which
// saves computing the entries that ReLU.Backward would zero.
func (d *Dense) backward(dOut *Mat, gate []bool) *Mat {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	AddMatMulTransA(d.W.Grad, d.x, dOut)
	for i := 0; i < dOut.R; i++ {
		row := dOut.Row(i)
		for j, v := range row {
			d.B.Grad.Data[j] += v
		}
	}
	d.dx = MatMulTransBInto(d.dx, dOut, d.W.Val, gate)
	return d.dx
}

// Params returns the layer's trainables.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation. It works in place: Forward
// rectifies the matrix it is given and Backward gates the gradient it
// is given, so neither holds a buffer of its own beyond the mask.
type ReLU struct {
	mask []bool
}

// Forward zeroes the negatives of x in place, remembers the active
// mask, and returns x.
func (r *ReLU) Forward(x *Mat) *Mat {
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			x.Data[i] = 0
		}
	}
	return x
}

// Backward gates dOut by the forward mask in place and returns it.
func (r *ReLU) Backward(dOut *Mat) *Mat {
	for i := range dOut.Data {
		if !r.mask[i] {
			dOut.Data[i] = 0
		}
	}
	return dOut
}

// Tanh activation (used by the SAC baseline's squashing). It owns its
// output, which Backward reads, and its input gradient.
type Tanh struct {
	y, dx *Mat
}

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *Mat) *Mat {
	t.y = Reuse(t.y, x.R, x.C)
	for i, v := range x.Data {
		t.y.Data[i] = math.Tanh(v)
	}
	return t.y
}

// Backward multiplies by 1 - y².
func (t *Tanh) Backward(dOut *Mat) *Mat {
	t.dx = Reuse(t.dx, dOut.R, dOut.C)
	for i, g := range dOut.Data {
		y := t.y.Data[i]
		t.dx.Data[i] = g * (1 - y*y)
	}
	return t.dx
}

// MLP is a feed-forward stack: Dense→ReLU repeated, final Dense linear.
// The paper's actor and critic are MLPs with hidden sizes 256/128/32.
type MLP struct {
	dense  []*Dense
	relu   []ReLU // relu[i] follows dense[i]
	params []*Param
}

// NewMLP builds an MLP with the given layer sizes, e.g.
// NewMLP(rng, 16, 256, 128, 32, 4) for the paper's 3-hidden-layer nets.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{relu: make([]ReLU, len(sizes)-2)}
	for i := 0; i+1 < len(sizes); i++ {
		d := NewDense(sizes[i], sizes[i+1], rng)
		m.dense = append(m.dense, d)
		m.params = append(m.params, d.Params()...)
	}
	// Full capacity: a caller appending to Params() always copies.
	m.params = m.params[:len(m.params):len(m.params)]
	return m
}

// Forward runs the stack. The result is the last layer's output buffer.
func (m *MLP) Forward(x *Mat) *Mat {
	for i, d := range m.dense {
		x = d.Forward(x)
		if i < len(m.relu) {
			x = m.relu[i].Forward(x)
		}
	}
	return x
}

// Backward runs the stack in reverse, returning ∂L/∂input (the first
// layer's input-gradient buffer). Each ReLU's backward pass is fused
// into the dense layer above it.
func (m *MLP) Backward(dOut *Mat) *Mat {
	for i := len(m.dense) - 1; i > 0; i-- {
		dOut = m.dense[i].backward(dOut, m.relu[i-1].mask)
	}
	return m.dense[0].Backward(dOut)
}

// Params returns all trainables, in layer order. The slice is shared;
// callers must not modify it.
func (m *MLP) Params() []*Param { return m.params }

// ZeroGrad clears all parameter gradients.
func (m *MLP) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer with the paper's defaults
// (lr 2e-4, β1 0.9, β2 0.999, ε 1e-8).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam creates an optimizer with learning rate lr.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{}}
}

// Step applies one Adam update to the params from their gradients, then
// leaves gradients untouched (callers usually ZeroGrad afterwards).
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Val.Data))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.Val.Data))
			a.v[p] = v
		}
		for i, g := range p.Grad.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Val.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ClipGrads scales all gradients so their global L2 norm is at most c.
func ClipGrads(params []*Param, c float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return
	}
	s := c / norm
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= s
		}
	}
}
