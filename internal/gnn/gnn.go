// Package gnn implements the graph encoders DCG-BE uses to embed the
// edge-cloud network topology (§5.3.2): GraphSAGE (the paper's choice,
// Eq. 9 — neighbour sampling plus mean aggregation), and the ablation
// alternatives of Figure 11(d): GCN, GAT and a "native" encoder that
// ignores graph structure. All encoders are trainable with manual
// backpropagation through the aggregation steps.
//
// GAT's attention coefficients are treated as constants during the
// backward pass (gradients flow through the value path only). This
// stop-gradient simplification is standard for lightweight
// implementations and only affects an ablation baseline, not DCG-BE.
package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
)

// Graph is an undirected topology view: Neigh[i] lists the neighbours of
// node i (no self loops needed; encoders add self contribution).
type Graph struct {
	N     int
	Neigh [][]int
}

// NewGraph builds a graph with n nodes and the given undirected edges.
func NewGraph(n int, edges [][2]int) *Graph {
	g := &Graph{N: n, Neigh: make([][]int, n)}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			panic(fmt.Sprintf("gnn: edge (%d,%d) out of range n=%d", a, b, n))
		}
		if a == b {
			continue
		}
		g.Neigh[a] = append(g.Neigh[a], b)
		g.Neigh[b] = append(g.Neigh[b], a)
	}
	return g
}

// Encoder maps node features (N×F) to embeddings (N×D). Encoders follow
// the nn package's buffer-ownership rules.
type Encoder interface {
	// Forward computes embeddings for the graph; it caches activations
	// for Backward. The result is the encoder's own output matrix, valid
	// until the next Forward; x must stay unchanged until Backward.
	Forward(g *Graph, x *nn.Mat) *nn.Mat
	// Backward accumulates parameter gradients from dOut (N×D), which it
	// may overwrite.
	Backward(dOut *nn.Mat)
	// Params returns the trainable parameters.
	Params() []*nn.Param
	// Name identifies the encoder in experiment output.
	Name() string
}

// sageLayer is one GraphSAGE aggregation: out = ReLU(mean(self∪N(i)) · W).
// Its matrices and sample lists are reused across calls.
type sageLayer struct {
	w       *nn.Param
	relu    nn.ReLU
	g       *Graph
	agg     *nn.Mat // cached aggregated input
	out     *nn.Mat // layer output (ReLU applied in place)
	dAgg    *nn.Mat
	dIn     *nn.Mat
	samples [][]int // neighbours actually sampled this forward
	sampled []int   // backing store of the drawn samples, p per node
	counts  []float64
}

// SAGE is the GraphSAGE encoder: L layers of sample-and-mean-aggregate.
type SAGE struct {
	layers []*sageLayer
	// P is the per-node neighbour sample size p (§5.3.2); 0 = all.
	P    int
	rng  *rand.Rand
	perm []int // sampleNeighbors scratch
}

// NewSAGE builds a GraphSAGE encoder with the given layer dimensions
// (e.g. NewSAGE(rng, p, F, 32, 32) for the paper's L=2 aggregations).
func NewSAGE(rng *rand.Rand, p int, dims ...int) *SAGE {
	if len(dims) < 2 {
		panic("gnn: SAGE needs at least input and output dims")
	}
	s := &SAGE{P: p, rng: rng}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		s.layers = append(s.layers, &sageLayer{
			w: &nn.Param{Name: fmt.Sprintf("sage%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])},
		})
	}
	return s
}

// Name implements Encoder.
func (s *SAGE) Name() string { return "GraphSAGE" }

// Params implements Encoder.
func (s *SAGE) Params() []*nn.Param {
	ps := make([]*nn.Param, len(s.layers))
	for i, l := range s.layers {
		ps[i] = l.w
	}
	return ps
}

// sampleNeighbors picks at most p neighbours without replacement
// (paper's sampling step) into dst (len ≥ p) and returns them. With
// p <= 0 or at most p neighbours it returns neigh itself and draws
// nothing. perm (len ≥ len(neigh)) is scratch for the permutation.
func sampleNeighbors(neigh []int, p int, rng *rand.Rand, perm, dst []int) []int {
	if p <= 0 || len(neigh) <= p {
		return neigh
	}
	// rng.Perm(len(neigh)) without its allocation: the same Intn calls
	// in the same order (math/rand keeps Perm's stream fixed), so the
	// sample and the generator state match it exactly.
	perm = perm[:len(neigh)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	dst = dst[:p]
	for i, j := range perm[:p] {
		dst[i] = neigh[j]
	}
	return dst
}

// Forward implements Encoder.
func (s *SAGE) Forward(g *Graph, x *nn.Mat) *nn.Mat {
	if x.R != g.N {
		panic(fmt.Sprintf("gnn: %d feature rows for %d nodes", x.R, g.N))
	}
	h := x
	for _, l := range s.layers {
		l.g = g
		if cap(l.samples) < g.N {
			l.samples = make([][]int, g.N)
			l.counts = make([]float64, g.N)
		}
		l.samples, l.counts = l.samples[:g.N], l.counts[:g.N]
		if s.P > 0 && cap(l.sampled) < g.N*s.P {
			l.sampled = make([]int, g.N*s.P)
		}
		l.agg = nn.Reuse(l.agg, g.N, h.C)
		for i := 0; i < g.N; i++ {
			neigh := g.Neigh[i]
			if len(neigh) > len(s.perm) {
				s.perm = make([]int, len(neigh))
			}
			var dst []int
			if s.P > 0 {
				dst = l.sampled[i*s.P : (i+1)*s.P]
			}
			ns := sampleNeighbors(neigh, s.P, s.rng, s.perm, dst)
			l.samples[i] = ns
			cnt := float64(len(ns) + 1)
			l.counts[i] = cnt
			row := l.agg.Row(i)
			copy(row, h.Row(i))
			for _, j := range ns {
				for c, v := range h.Row(j) {
					row[c] += v
				}
			}
			for c := range row {
				row[c] /= cnt
			}
		}
		l.out = nn.MatMulInto(l.out, l.agg, l.w.Val)
		h = l.relu.Forward(l.out)
	}
	return h
}

// Backward implements Encoder. It gates dOut in place.
func (s *SAGE) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(s.layers) - 1; li >= 0; li-- {
		l := s.layers[li]
		if l.agg == nil {
			panic("gnn: SAGE.Backward before Forward")
		}
		dz := l.relu.Backward(d)
		nn.AddMatMulTransA(l.w.Grad, l.agg, dz)
		if li == 0 {
			break // the input features take no gradient
		}
		l.dAgg = nn.MatMulTransBInto(l.dAgg, dz, l.w.Val, nil)
		// Distribute mean-aggregation gradient to self and sampled
		// neighbours.
		l.dIn = nn.Reuse(l.dIn, l.agg.R, l.agg.C)
		l.dIn.Zero()
		for i := 0; i < l.g.N; i++ {
			inv := 1.0 / l.counts[i]
			src := l.dAgg.Row(i)
			self := l.dIn.Row(i)
			for c, v := range src {
				self[c] += v * inv
			}
			for _, j := range l.samples[i] {
				dst := l.dIn.Row(j)
				for c, v := range src {
					dst[c] += v * inv
				}
			}
		}
		d = l.dIn
	}
}

// GCN is a graph convolutional encoder: H' = ReLU(Â H W) with symmetric
// normalization Â = D^{-1/2}(A+I)D^{-1/2}.
type GCN struct {
	ws    []*nn.Param
	relus []nn.ReLU
	// caches and buffers, one per layer where Backward needs them
	g         *Graph
	aggs      []*nn.Mat // Â H per layer
	outs      []*nn.Mat // layer outputs (ReLU applied in place)
	dAgg, dIn *nn.Mat
	norm      []float64 // 1/sqrt(deg+1)
}

// NewGCN builds a GCN with the given layer dims.
func NewGCN(rng *rand.Rand, dims ...int) *GCN {
	if len(dims) < 2 {
		panic("gnn: GCN needs at least input and output dims")
	}
	g := &GCN{}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		g.ws = append(g.ws, &nn.Param{Name: fmt.Sprintf("gcn%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])})
		g.relus = append(g.relus, nn.ReLU{})
	}
	g.aggs = make([]*nn.Mat, len(g.ws))
	g.outs = make([]*nn.Mat, len(g.ws))
	return g
}

// Name implements Encoder.
func (g *GCN) Name() string { return "GCN" }

// Params implements Encoder.
func (g *GCN) Params() []*nn.Param { return g.ws }

// propagateInto writes Â h into out (reused) and returns it.
func (g *GCN) propagateInto(out *nn.Mat, gr *Graph, h *nn.Mat) *nn.Mat {
	out = nn.Reuse(out, h.R, h.C)
	out.Zero()
	for i := 0; i < gr.N; i++ {
		di := g.norm[i]
		row := out.Row(i)
		for c, v := range h.Row(i) {
			row[c] += v * di * di // self loop
		}
		for _, j := range gr.Neigh[i] {
			dj := g.norm[j]
			for c, v := range h.Row(j) {
				row[c] += v * di * dj
			}
		}
	}
	return out
}

// Forward implements Encoder.
func (g *GCN) Forward(gr *Graph, x *nn.Mat) *nn.Mat {
	if x.R != gr.N {
		panic("gnn: GCN feature rows mismatch")
	}
	g.g = gr
	if cap(g.norm) < gr.N {
		g.norm = make([]float64, gr.N)
	}
	g.norm = g.norm[:gr.N]
	for i := range g.norm {
		g.norm[i] = 1 / math.Sqrt(float64(len(gr.Neigh[i])+1))
	}
	h := x
	for i := range g.ws {
		g.aggs[i] = g.propagateInto(g.aggs[i], gr, h)
		g.outs[i] = nn.MatMulInto(g.outs[i], g.aggs[i], g.ws[i].Val)
		h = g.relus[i].Forward(g.outs[i])
	}
	return h
}

// Backward implements Encoder. Â is symmetric, so the adjoint of the
// propagation is the propagation itself. It gates dOut in place.
func (g *GCN) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		nn.AddMatMulTransA(g.ws[li].Grad, g.aggs[li], dz)
		if li == 0 {
			break // the input features take no gradient
		}
		g.dAgg = nn.MatMulTransBInto(g.dAgg, dz, g.ws[li].Val, nil)
		g.dIn = g.propagateInto(g.dIn, g.g, g.dAgg)
		d = g.dIn
	}
}

// GAT is a graph attention encoder (single head per layer). Attention
// weights use LeakyReLU scoring as in Veličković et al.; the backward
// pass flows through the value path only (see package comment).
type GAT struct {
	ws    []*nn.Param // value transforms
	as    []*nn.Param // attention vectors, 1 × 2*out
	relus []nn.ReLU
	g     *Graph
	ins   []*nn.Mat     // layer inputs
	atts  [][][]float64 // per layer, per node: attention over self+neighbours
	whs   []*nn.Mat     // transformed features per layer
	outs  []*nn.Mat     // layer outputs (ReLU applied in place)
	dWH   *nn.Mat
	dIn   *nn.Mat
}

// NewGAT builds a GAT with the given layer dims.
func NewGAT(rng *rand.Rand, dims ...int) *GAT {
	if len(dims) < 2 {
		panic("gnn: GAT needs at least input and output dims")
	}
	g := &GAT{}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		a := nn.NewMat(1, 2*dims[i+1])
		nn.XavierInit(a, rng)
		g.ws = append(g.ws, &nn.Param{Name: fmt.Sprintf("gat%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])})
		g.as = append(g.as, &nn.Param{Name: fmt.Sprintf("gat%d.a", i), Val: a, Grad: nn.NewMat(1, 2*dims[i+1])})
		g.relus = append(g.relus, nn.ReLU{})
	}
	g.ins = make([]*nn.Mat, len(g.ws))
	g.atts = make([][][]float64, len(g.ws))
	g.whs = make([]*nn.Mat, len(g.ws))
	g.outs = make([]*nn.Mat, len(g.ws))
	return g
}

// Name implements Encoder.
func (g *GAT) Name() string { return "GAT" }

// Params implements Encoder.
func (g *GAT) Params() []*nn.Param {
	var ps []*nn.Param
	for i := range g.ws {
		ps = append(ps, g.ws[i], g.as[i])
	}
	return ps
}

func leaky(x float64) float64 {
	if x < 0 {
		return 0.2 * x
	}
	return x
}

// Forward implements Encoder.
func (g *GAT) Forward(gr *Graph, x *nn.Mat) *nn.Mat {
	if x.R != gr.N {
		panic("gnn: GAT feature rows mismatch")
	}
	g.g = gr
	h := x
	for li := range g.ws {
		g.ins[li] = h
		wh := nn.MatMulInto(g.whs[li], h, g.ws[li].Val)
		g.whs[li] = wh
		out := nn.Reuse(g.outs[li], gr.N, wh.C)
		out.Zero()
		g.outs[li] = out
		att := make([][]float64, gr.N)
		avec := g.as[li].Val.Data
		d := wh.C
		for i := 0; i < gr.N; i++ {
			cand := append([]int{i}, gr.Neigh[i]...)
			scores := make([]float64, len(cand))
			for ci, j := range cand {
				s := 0.0
				for c := 0; c < d; c++ {
					s += avec[c] * wh.At(i, c)
					s += avec[d+c] * wh.At(j, c)
				}
				scores[ci] = leaky(s)
			}
			alpha := nn.SoftmaxRow(scores, nil)
			att[i] = alpha
			row := out.Row(i)
			for ci, j := range cand {
				a := alpha[ci]
				for c, v := range wh.Row(j) {
					row[c] += a * v
				}
			}
		}
		g.atts[li] = att
		h = g.relus[li].Forward(out)
	}
	return h
}

// Backward implements Encoder (value path only; attention coefficients
// fixed). It gates dOut in place.
func (g *GAT) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		wh := g.whs[li]
		// dWH[j] = sum over i of att_i[j] * dz[i]
		g.dWH = nn.Reuse(g.dWH, wh.R, wh.C)
		g.dWH.Zero()
		for i := 0; i < g.g.N; i++ {
			src := dz.Row(i)
			for ci, a := range g.atts[li][i] {
				j := i
				if ci > 0 {
					j = g.g.Neigh[i][ci-1]
				}
				dst := g.dWH.Row(j)
				for c, v := range src {
					dst[c] += a * v
				}
			}
		}
		nn.AddMatMulTransA(g.ws[li].Grad, g.ins[li], g.dWH)
		if li == 0 {
			break // the input features take no gradient
		}
		g.dIn = nn.MatMulTransBInto(g.dIn, g.dWH, g.ws[li].Val, nil)
		d = g.dIn
	}
}

// Native ignores the topology entirely — a per-node MLP. This is the
// "Native-A2C" baseline of Figure 11(d).
type Native struct {
	mlp *nn.MLP
}

// NewNative builds the structure-blind encoder.
func NewNative(rng *rand.Rand, dims ...int) *Native {
	return &Native{mlp: nn.NewMLP(rng, dims...)}
}

// Name implements Encoder.
func (n *Native) Name() string { return "Native" }

// Forward implements Encoder.
func (n *Native) Forward(g *Graph, x *nn.Mat) *nn.Mat {
	if x.R != g.N {
		panic("gnn: Native feature rows mismatch")
	}
	return n.mlp.Forward(x)
}

// Backward implements Encoder.
func (n *Native) Backward(dOut *nn.Mat) { n.mlp.Backward(dOut) }

// Params implements Encoder.
func (n *Native) Params() []*nn.Param { return n.mlp.Params() }
