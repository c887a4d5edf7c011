// Package nn is the neural-network substrate replacing PyTorch for the
// learning components of Tango (DCG-BE's GraphSAGE encoder and A2C
// actor/critic, plus the GNN-SAC and GCN/GAT ablation baselines). It
// provides dense matrices, fully-connected layers with manual
// backpropagation, ReLU/Tanh activations, row-wise softmax with action
// masking, Xavier initialization and the Adam optimizer with the paper's
// hyperparameters (lr = 2e-4).
//
// # Buffer ownership
//
// Once every buffer has its size, forward and backward passes allocate
// nothing. Layers own the matrices they return and overwrite them on
// their next call:
//
//   - Dense.Forward returns the layer's output matrix and keeps a
//     reference to its input, which must stay unchanged until Backward;
//     Dense.Backward returns the layer's input-gradient matrix. Each is
//     valid until that layer's next call of the same method.
//   - ReLU works in place: Forward rectifies the matrix it is given and
//     returns it, and Backward gates the gradient it is given. Inside an
//     MLP the gate is fused into the dense layer above, which computes
//     only the gradient entries the ReLU lets through.
//   - MLP.Forward returns its last layer's output and MLP.Backward its
//     first layer's input gradient, under the same rules.
//   - A caller may modify a returned matrix (the agents sum gradient
//     paths into one); it must copy whatever it keeps past the next call.
//   - MatMulInto, MatMulTransBInto and MeanRowsInto write into a
//     caller-owned matrix recycled by Reuse; AddMatMulTransA accumulates
//     into its destination without a temporary.
//
// # Exactness
//
// The kernels produce the bits of the textbook loops they replaced (kept
// in oracle_test.go as the reference and checked bitwise, fuzzing
// included). Each output element is summed from +0 over k in ascending
// order with the same terms; unrolling only changes how many independent
// sums one pass advances, never the order within one sum. MatMulInto and
// AddMatMulTransA skip zero coefficients exactly where the reference
// loops did; AddMatMulTransA sums each row of the product on its own
// before adding it once, as adding a separately computed product would;
// MatMulTransBInto skips nothing, and its ReLU-gated form writes +0
// exactly where gating the full product would. The one freedom left is
// which payload survives when two NaNs meet in an addition: Go does not
// fix the operand order of a commutative instruction.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	Data []float64
}

// NewMat allocates an R×C zero matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (len r*c) in a matrix without copying.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: FromSlice %dx%d with %d values", r, c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m *Mat) Zero() { clear(m.Data) }

// Reuse returns an r×c matrix backed by m's storage when m is non-nil
// and its capacity suffices, and a freshly allocated zero matrix
// otherwise. The contents of a reused matrix are unspecified; kernels
// that accumulate must Zero it first. Layers keep their outputs and
// gradients in matrices recycled this way, so steady-state calls
// allocate nothing.
func Reuse(m *Mat, r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", r, c))
	}
	if m == nil || cap(m.Data) < r*c {
		return NewMat(r, c)
	}
	m.R, m.C, m.Data = r, c, m.Data[:r*c]
	return m
}

// MatMulInto writes a × b into out (resized by Reuse; nil allocates),
// which must not share storage with a or b, and returns it. Terms with
// a[i][k] == 0 are skipped, as in the textbook loop (after ReLU about
// half the activations are zero): each output row is accumulated from
// the nonzero coefficients of its a row, four rows of b per pass.
func MatMulInto(out, a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out = Reuse(out, a.R, b.C)
	for i := 0; i < a.R; i++ {
		o := out.Row(i)
		clear(o)
		accumulate(o, a.Data[i*a.C:], 1, a.C, b, 0)
	}
	return out
}

// AddMatMulTransA adds aᵀ × b into dst (a.C×b.C) — the weight gradient
// xᵀ·dOut of a dense layer. Each row of aᵀ × b is summed on its own in
// a one-row stack scratch (terms with a[k][i] == 0 skipped) and then
// added to dst once, so the result rounds exactly like adding a
// separately computed product, without materializing it.
func AddMatMulTransA(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("nn: matmulTA %dx%d by %dx%d into %dx%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	var buf [256]float64
	n := b.C
	for i := 0; i < a.C; i++ {
		drow := dst.Row(i)
		for j0 := 0; j0 < n; j0 += len(buf) {
			d := drow[j0:min(j0+len(buf), n)]
			r := buf[:len(d)]
			clear(r)
			accumulate(r, a.Data[i:], a.C, a.R, b, j0)
			for j, v := range r {
				d[j] += v
			}
		}
	}
}

// accumulate adds c[k·stride]·b[k][j0:j0+len(o)] into o for k = 0..kn-1
// in ascending order, skipping zero coefficients. Element by element
// this is the textbook loop's sequence of roundings; gathering the
// nonzero coefficients first keeps the data-dependent branch out of the
// inner loop and lets one pass over o apply four terms.
func accumulate(o, c []float64, stride, kn int, b *Mat, j0 int) {
	var ks [4]int
	var cs [4]float64
	cnt := 0
	bd, n, w := b.Data, b.C, len(o)
	for k := 0; k < kn; k++ {
		ck := c[k*stride]
		if ck == 0 {
			continue
		}
		ks[cnt], cs[cnt] = k*n+j0, ck
		if cnt++; cnt == 4 {
			axpy4(o, cs, bd[ks[0]:ks[0]+w], bd[ks[1]:ks[1]+w], bd[ks[2]:ks[2]+w], bd[ks[3]:ks[3]+w])
			cnt = 0
		}
	}
	for t := 0; t < cnt; t++ {
		ck, bk := cs[t], bd[ks[t]:ks[t]+w]
		for j := range o {
			o[j] += ck * bk[j]
		}
	}
}

// axpy4 adds c[0]·b0 + c[1]·b1 + c[2]·b2 + c[3]·b3 into o, one term at a
// time in that order for every element.
func axpy4(o []float64, c [4]float64, b0, b1, b2, b3 []float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		v := o[j]
		v += c0 * b0[j]
		v += c1 * b1[j]
		v += c2 * b2[j]
		v += c3 * b3[j]
		o[j] = v
	}
}

// MatMulTransBInto writes a × bᵀ into out (resized by Reuse; nil
// allocates), which must not share storage with a or b, and returns it.
// No term is skipped: every element is the full dot product of two
// contiguous rows, and one pass over a row of a advances four of them
// in registers. A non-nil keep (len a.R·b.R) gates the product like a
// ReLU backward pass: elements with keep false are written +0 without
// being computed, exactly what gating the full product would leave
// there.
func MatMulTransBInto(out, a, b *Mat, keep []bool) *Mat {
	if a.C != b.C || (keep != nil && len(keep) != a.R*b.R) {
		panic(fmt.Sprintf("nn: matmulTB %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out = Reuse(out, a.R, b.R)
	var js [4]int
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		cnt := 0
		for j := range orow {
			if keep != nil && !keep[i*b.R+j] {
				orow[j] = 0
				continue
			}
			js[cnt] = j
			if cnt++; cnt == 4 {
				dot4(orow, js, arow, b)
				cnt = 0
			}
		}
		for _, j := range js[:cnt] {
			brow := b.Row(j)[:len(arow)]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// dot4 writes the dot products of arow with rows js of b into orow.
func dot4(orow []float64, js [4]int, arow []float64, b *Mat) {
	b0, b1, b2, b3 := b.Row(js[0])[:len(arow)], b.Row(js[1])[:len(arow)], b.Row(js[2])[:len(arow)], b.Row(js[3])[:len(arow)]
	var s0, s1, s2, s3 float64
	for k, av := range arow {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	orow[js[0]], orow[js[1]], orow[js[2]], orow[js[3]] = s0, s1, s2, s3
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Mat) {
	if a.R != b.R || a.C != b.C {
		panic("nn: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(a *Mat, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// MeanRowsInto writes the 1×C mean of the rows of m into out (resized
// by Reuse; nil allocates) and returns it.
func MeanRowsInto(out, m *Mat) *Mat {
	out = Reuse(out, 1, m.C)
	out.Zero()
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(m.R)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// ConcatCols returns [a | b] column-wise (same row count).
func ConcatCols(a, b *Mat) *Mat {
	if a.R != b.R {
		panic("nn: ConcatCols row mismatch")
	}
	out := NewMat(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return out
}

// SoftmaxRow computes a numerically-stable softmax of one logit row
// into a fresh slice. mask (optional) zeroes out entries where
// mask[i] == false before normalization — the "policy context
// filtering" mechanism of §5.3.2. If every entry is masked, the result
// is uniform over all entries.
func SoftmaxRow(logits []float64, mask []bool) []float64 {
	return SoftmaxRowInto(make([]float64, len(logits)), logits, mask)
}

// SoftmaxRowInto is SoftmaxRow writing into out (len(logits)), which it
// returns.
func SoftmaxRowInto(out, logits []float64, mask []bool) []float64 {
	out = out[:len(logits)]
	maxv := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		any = true
		if v > maxv {
			maxv = v
		}
	}
	if !any {
		u := 1.0 / float64(len(logits))
		for i := range out {
			out[i] = u
		}
		return out
	}
	sum := 0.0
	for i, v := range logits {
		if mask != nil && !mask[i] {
			out[i] = 0
			continue
		}
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// L2Norm returns the Euclidean norm of all elements.
func (m *Mat) L2Norm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// XavierInit fills m with Uniform(-a, a), a = sqrt(6/(fanIn+fanOut)).
func XavierInit(m *Mat, rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(m.R+m.C))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * a
	}
}
