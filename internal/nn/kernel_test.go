package nn

import (
	"math"
	"math/rand"
	"testing"
)

// fill draws the entries of m from one of the input kinds the kernels
// must treat exactly like the reference loops.
func fill(m *Mat, rng *rand.Rand, kind string) {
	for i := range m.Data {
		v := rng.NormFloat64()
		switch kind {
		case "relu": // post-ReLU activations: about half exact zeros
			if v < 0 {
				v = 0
			}
		case "signed-zero": // ±0 mixed with signed values
			switch rng.Intn(3) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = 0
			}
		case "special": // non-finite and extreme values
			switch rng.Intn(8) {
			case 0:
				v = math.Inf(1)
			case 1:
				v = math.Inf(-1)
			case 2:
				v = math.NaN()
			case 3:
				v = math.Copysign(0, -1)
			case 4:
				v = 0
			case 5:
				v = math.SmallestNonzeroFloat64
			case 6:
				v = math.MaxFloat64
			}
		}
		m.Data[i] = v
	}
}

func randMat(rng *rand.Rand, r, c int, kind string) *Mat {
	m := NewMat(r, c)
	fill(m, rng, kind)
	return m
}

// poison fills m's whole backing array with NaN so a kernel that leaves
// an element unwritten, or reads stale storage, shows up.
func poison(m *Mat) {
	if m == nil {
		return
	}
	d := m.Data[:cap(m.Data)]
	for i := range d {
		d[i] = math.NaN()
	}
}

// sameBits requires every element to have the reference's exact bits.
// The one allowance is among NaNs: when both operands of an addition are
// NaN, which payload survives depends on the operand order the compiler
// picks for the commutative instruction, which Go leaves unspecified,
// so a NaN only has to meet a NaN.
func sameBits(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i]) {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// checkKernels compares every production kernel against its reference
// on a (r×k)·(k×c) product, writing into out (reused) and returning it.
func checkKernels(t *testing.T, what string, rng *rand.Rand, r, k, c int, kind string, out *Mat) *Mat {
	t.Helper()
	a := randMat(rng, r, k, kind)
	b := randMat(rng, k, c, kind)
	poison(out)
	out = MatMulInto(out, a, b)
	sameBits(t, what+" MatMulInto", out, MatMul(a, b))

	bt := randMat(rng, c, k, kind)
	poison(out)
	out = MatMulTransBInto(out, a, bt, nil)
	sameBits(t, what+" MatMulTransBInto", out, MatMulTransB(a, bt))

	// Gated by a ReLU mask: the product the gate would leave behind.
	keep := make([]bool, r*c)
	for i := range keep {
		keep[i] = rng.Intn(2) == 0
	}
	gated := MatMulTransB(a, bt)
	(&ReLU{mask: keep}).Backward(gated)
	poison(out)
	out = MatMulTransBInto(out, a, bt, keep)
	sameBits(t, what+" gated MatMulTransBInto", out, gated)

	// aᵀ·d with a r×k and d r×c, added onto a non-zero gradient.
	d := randMat(rng, r, c, kind)
	dst := randMat(rng, k, c, "normal")
	want := dst.Clone()
	AddInPlace(want, MatMulTransA(a, d))
	AddMatMulTransA(dst, a, d)
	sameBits(t, what+" AddMatMulTransA", dst, want)

	poison(out)
	out = MeanRowsInto(out, a)
	sameBits(t, what+" MeanRowsInto", out, MeanRows(a))
	return out
}

// TestKernelsMatchReferenceBitwise sweeps widths that are and are not
// multiples of the unroll factor, 1-row and 1-column shapes, ReLU-sparse
// and signed-zero inputs, with one output buffer reused across every
// shape change.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var out *Mat
	for _, kind := range []string{"normal", "relu", "signed-zero", "special"} {
		for _, r := range []int{1, 2, 3, 16} {
			for _, k := range []int{1, 3, 4, 5, 32} {
				for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33} {
					out = checkKernels(t, kind, rng, r, k, c, kind, out)
				}
			}
		}
	}
}

func TestReuse(t *testing.T) {
	m := Reuse(nil, 2, 3)
	if m.R != 2 || m.C != 3 || len(m.Data) != 6 {
		t.Fatalf("Reuse(nil) = %dx%d len %d", m.R, m.C, len(m.Data))
	}
	if s := Reuse(m, 3, 1); s != m || len(s.Data) != 3 {
		t.Fatal("shrinking Reuse did not keep the storage")
	}
	if g := Reuse(m, 2, 3); g != m || len(g.Data) != 6 {
		t.Fatal("Reuse back to the original shape did not keep the storage")
	}
	if g := Reuse(m, 4, 4); g == m || len(g.Data) != 16 {
		t.Fatal("growing Reuse did not allocate")
	}
}

func FuzzMatMulInto(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(7), uint8(0))
	f.Add(int64(2), uint8(1), uint8(32), uint8(1), uint8(1))
	f.Add(int64(3), uint8(16), uint8(4), uint8(9), uint8(2))
	f.Add(int64(4), uint8(2), uint8(1), uint8(33), uint8(3))
	kinds := []string{"normal", "relu", "signed-zero", "special"}
	f.Fuzz(func(t *testing.T, seed int64, r, k, c, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Two shapes through one output buffer: the second call reuses
		// (or regrows) the first call's storage.
		out := checkKernels(t, "first", rng, int(r%17)+1, int(k%40)+1, int(c%40)+1, kinds[int(kind)%len(kinds)], nil)
		checkKernels(t, "second", rng, int(c%9)+1, int(r%33)+1, int(k%13)+1, kinds[int(kind/4)%len(kinds)], out)
	})
}

// TestLayersAllocationFree pins the steady state of the layer stack:
// once each layer has sized its buffers, Forward+Backward allocates
// nothing.
func TestLayersAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 16, 32, "normal")
	dense := NewDense(32, 64, rng)
	relu := &ReLU{}
	mlp := NewMLP(rng, 32, 256, 128, 32, 1)
	dOut := randMat(rng, 16, 1, "normal")
	dDense := randMat(rng, 16, 64, "normal")
	for name, step := range map[string]func(){
		"Dense": func() { dense.Forward(x); dense.Backward(dDense) },
		"ReLU":  func() { relu.Backward(relu.Forward(dense.Forward(x))) },
		"MLP":   func() { mlp.Forward(x); mlp.Backward(dOut) },
	} {
		step() // warm-up sizes the buffers
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%s Forward+Backward: %v allocs/op, want 0", name, n)
		}
	}
}
