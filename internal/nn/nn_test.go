package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatal("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases data")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero broken")
	}
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatal("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMulInto(nil, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(2, 2, []float64{1, 0, 0, 1})
	// aᵀ b where b is identity: result = aᵀ, added onto ones.
	c := FromSlice(3, 2, []float64{1, 1, 1, 1, 1, 1})
	AddMatMulTransA(c, a, b)
	if c.At(0, 1) != 5 || c.At(2, 0) != 4 {
		t.Fatalf("AddMatMulTransA = %+v", c)
	}
	// a bᵀ with identity: a itself.
	d := MatMulTransBInto(nil, a, FromSlice(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}), nil)
	for i := range a.Data {
		if d.Data[i] != a.Data[i] {
			t.Fatal("MatMulTransBInto with identity not identity")
		}
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"newmat":       func() { NewMat(0, 1) },
		"matmul":       func() { MatMulInto(nil, NewMat(2, 3), NewMat(2, 3)) },
		"matmulTB":     func() { MatMulTransBInto(nil, NewMat(2, 3), NewMat(2, 2), nil) },
		"matmulTA":     func() { AddMatMulTransA(NewMat(3, 3), NewMat(2, 3), NewMat(3, 3)) },
		"matmulTA dst": func() { AddMatMulTransA(NewMat(2, 2), NewMat(2, 3), NewMat(2, 3)) },
		"reuse":        func() { Reuse(NewMat(2, 2), 0, 1) },
		"add":          func() { AddInPlace(NewMat(1, 2), NewMat(2, 1)) },
		"concat":       func() { ConcatCols(NewMat(1, 2), NewMat(2, 2)) },
		"mlp tiny":     func() { NewMLP(rand.New(rand.NewSource(1)), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMeanRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 3, 3, 5})
	mean := MeanRowsInto(nil, m)
	if mean.At(0, 0) != 2 || mean.At(0, 1) != 4 {
		t.Fatalf("MeanRows = %v", mean.Data)
	}
}

func TestConcatCols(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	c := ConcatCols(a, b)
	if c.C != 3 || c.At(0, 0) != 1 || c.At(0, 2) != 4 || c.At(1, 1) != 5 {
		t.Fatalf("ConcatCols = %v", c.Data)
	}
}

func TestSoftmaxRow(t *testing.T) {
	p := SoftmaxRow([]float64{1, 1, 1, 1}, nil)
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	p = SoftmaxRow([]float64{1000, 0}, nil) // stability
	if p[0] < 0.999 || math.IsNaN(p[1]) {
		t.Fatalf("large-logit softmax = %v", p)
	}
}

func TestSoftmaxMasking(t *testing.T) {
	p := SoftmaxRow([]float64{5, 1, 100}, []bool{true, true, false})
	if p[2] != 0 {
		t.Fatalf("masked entry has probability %v", p[2])
	}
	if math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatalf("masked softmax does not normalize: %v", p)
	}
	// Everything masked -> uniform fallback.
	p = SoftmaxRow([]float64{1, 2}, []bool{false, false})
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("all-masked fallback = %v", p)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(1)))
	copy(d.W.Val.Data, []float64{1, 2, 3, 4})
	copy(d.B.Val.Data, []float64{10, 20})
	y := d.Forward(FromSlice(1, 2, []float64{1, 1}))
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("Dense forward = %v", y.Data)
	}
}

func TestDenseBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDense(2, 2, rand.New(rand.NewSource(1))).Backward(NewMat(1, 2))
}

// numericalGrad estimates dL/dp for a scalar loss via central differences.
func numericalGrad(loss func() float64, data []float64, i int) float64 {
	const h = 1e-6
	orig := data[i]
	data[i] = orig + h
	lp := loss()
	data[i] = orig - h
	lm := loss()
	data[i] = orig
	return (lp - lm) / (2 * h)
}

// TestGradCheckMLP verifies backprop against numerical gradients on a
// small MLP with a quadratic loss.
func TestGradCheckMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP(rng, 3, 5, 4, 2)
	x := NewMat(2, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := NewMat(2, 2)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		y := m.Forward(x)
		s := 0.0
		for i := range y.Data {
			d := y.Data[i] - target.Data[i]
			s += 0.5 * d * d
		}
		return s
	}
	// Analytic gradients.
	m.ZeroGrad()
	y := m.Forward(x)
	dOut := NewMat(y.R, y.C)
	for i := range y.Data {
		dOut.Data[i] = y.Data[i] - target.Data[i]
	}
	m.Backward(dOut)
	for _, p := range m.Params() {
		for i := 0; i < len(p.Val.Data); i += 3 { // sample every 3rd param
			want := numericalGrad(loss, p.Val.Data, i)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: grad %g, numerical %g", p.Name, i, got, want)
			}
		}
	}
}

// TestGradCheckTanh verifies the Tanh layer's backward pass.
func TestGradCheckTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(2, 3, rng)
	tanh := &Tanh{}
	x := FromSlice(1, 2, []float64{0.3, -0.7})
	loss := func() float64 {
		y := tanh.Forward(d.Forward(x))
		s := 0.0
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	d.W.Grad.Zero()
	d.B.Grad.Zero()
	y := tanh.Forward(d.Forward(x))
	dOut := NewMat(1, 3)
	for i, v := range y.Data {
		dOut.Data[i] = 2 * v
	}
	d.Backward(tanh.Backward(dOut))
	for i := range d.W.Val.Data {
		want := numericalGrad(loss, d.W.Val.Data, i)
		if math.Abs(d.W.Grad.Data[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("tanh grad check failed at %d: %g vs %g", i, d.W.Grad.Data[i], want)
		}
	}
}

// TestAdamConvergesOnRegression trains a small MLP to fit y = 2x1 - x2
// and checks the loss drops by >100x.
func TestAdamConvergesOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(0.01)
	var first, last float64
	for step := 0; step < 400; step++ {
		x := NewMat(16, 2)
		target := NewMat(16, 1)
		for i := 0; i < 16; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			target.Set(i, 0, 2*a-b)
		}
		m.ZeroGrad()
		y := m.Forward(x)
		lossV := 0.0
		dOut := NewMat(16, 1)
		for i := range y.Data {
			d := y.Data[i] - target.Data[i]
			lossV += d * d / 16
			dOut.Data[i] = 2 * d / 16
		}
		m.Backward(dOut)
		opt.Step(m.Params())
		if step == 0 {
			first = lossV
		}
		last = lossV
	}
	if last > first/100 {
		t.Fatalf("Adam did not converge: first %g, last %g", first, last)
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{Val: NewMat(1, 2), Grad: FromSlice(1, 2, []float64{3, 4})}
	ClipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %g", norm)
	}
	// Under the cap: untouched.
	q := &Param{Val: NewMat(1, 1), Grad: FromSlice(1, 1, []float64{0.5})}
	ClipGrads([]*Param{q}, 1)
	if q.Grad.Data[0] != 0.5 {
		t.Fatal("grad under cap was modified")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMat(100, 100)
	XavierInit(m, rng)
	bound := math.Sqrt(6.0 / 200)
	nonzero := 0
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("value %g outside ±%g", v, bound)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 9000 {
		t.Fatal("init left most weights zero")
	}
}

func TestMLPDeterministicForSeed(t *testing.T) {
	a := NewMLP(rand.New(rand.NewSource(5)), 4, 8, 2)
	b := NewMLP(rand.New(rand.NewSource(5)), 4, 8, 2)
	x := FromSlice(1, 4, []float64{1, 2, 3, 4})
	ya, yb := a.Forward(x), b.Forward(x)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("same seed gave different networks")
		}
	}
}

// Property: softmax output is a probability distribution and respects
// masks for random logits.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%10) + 2
		logits := make([]float64, k)
		mask := make([]bool, k)
		anyValid := false
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
			mask[i] = rng.Intn(2) == 0
			anyValid = anyValid || mask[i]
		}
		p := SoftmaxRow(logits, mask)
		sum := 0.0
		for i, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			if anyValid && !mask[i] && v != 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: (A+B)C = AC + BC.
func TestQuickMatMulLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := rng.Intn(4)+1, rng.Intn(4)+1, rng.Intn(4)+1
		mk := func() *Mat {
			m := NewMat(r, k)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			return m
		}
		a, b := mk(), mk()
		cm := NewMat(k, c)
		for i := range cm.Data {
			cm.Data[i] = rng.NormFloat64()
		}
		sum := a.Clone()
		AddInPlace(sum, b)
		left := MatMulInto(nil, sum, cm)
		right := MatMulInto(nil, a, cm)
		AddInPlace(right, MatMulInto(nil, b, cm))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 32, 256, 128, 32, 8)
	x := NewMat(1, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}
