package nn

import "fmt"

// Reference kernels: the allocating textbook loops the production
// kernels replaced. The differential tests and FuzzMatMulInto compare
// MatMulInto, MatMulTransBInto, AddMatMulTransA and MeanRowsInto
// against them bit for bit.

// MatMul returns a × b.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransA returns aᵀ × b.
func MatMulTransA(a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: matmulTA %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.C, b.C)
	for k := 0; k < a.R; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB returns a × bᵀ.
func MatMulTransB(a, b *Mat) *Mat {
	if a.C != b.C {
		panic(fmt.Sprintf("nn: matmulTB %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.R; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// MeanRows returns the 1×C mean of the rows of m.
func MeanRows(m *Mat) *Mat {
	out := NewMat(1, m.C)
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
