// Package rl implements the deep-reinforcement-learning substrate of
// DCG-BE (§5.3.2): Advantage Actor-Critic (A2C) with the paper's network
// shapes (three ReLU layers of 256/128/32 hidden units for both actor and
// critic, Adam with lr 2e-4), action masking ("policy context filtering"
// — invalid nodes get zero probability), and a discrete Soft Actor-Critic
// used by the GNN-SAC comparison baseline.
//
// Both agents act over a variable-size node set: the actor scores each
// node embedding with shared weights, so the same parameters work for any
// topology size — matching GraphSAGE's inductive encoding. The encoder
// embeds every node, but the actor scores only the nodes the mask admits
// (the live rows): a filtered node's probability is +0 without running
// the actor on it, and it adds nothing to the actor's gradients, exactly
// as if the actor had scored it and the mask had zeroed it (DESIGN.md
// §4.9).
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// LearningRate is the paper's Adam learning rate.
const LearningRate = 2e-4

// Transition is one step of experience for training.
type Transition struct {
	Graph  *gnn.Graph
	X      *nn.Mat // node features at decision time
	Mask   []bool  // valid actions (policy context filtering)
	Action int
	Reward float64
}

// A2C is the advantage actor-critic agent.
type A2C struct {
	Enc     gnn.Encoder
	Actor   *nn.MLP // per-node embedding -> logit (shared weights)
	Critic  *nn.MLP // mean-pooled embedding -> state value
	Gamma   float64
	Entropy float64 // entropy bonus coefficient

	opt *nn.Adam
	rng *rand.Rand
	ps  []*nn.Param // params(), collected once

	live liveActor // the actor on the rows the mask admits
	// Update scratch, reused across calls.
	returns             []float64
	pooled, dV, dLogits *nn.Mat
}

// NewA2C builds the agent for embDim-sized encoder outputs.
func NewA2C(enc gnn.Encoder, embDim int, rng *rand.Rand) *A2C {
	a := &A2C{
		Enc:     enc,
		Actor:   nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		Critic:  nn.NewMLP(rng, embDim, 256, 128, 32, 1),
		Gamma:   0.95,
		Entropy: 0.01,
		opt:     nn.NewAdam(LearningRate),
		rng:     rng,
	}
	a.ps = a.params()
	return a
}

// SetLR overrides the optimizer learning rate (tests and ablations; the
// paper's experiments use the default 2e-4).
func (a *A2C) SetLR(lr float64) { a.opt.LR = lr }

// params returns all trainables (encoder + heads).
func (a *A2C) params() []*nn.Param {
	ps := a.Enc.Params()
	ps = append(ps, a.Actor.Params()...)
	ps = append(ps, a.Critic.Params()...)
	return ps
}

// Probs returns the masked action distribution π(a|s) in a fresh slice
// the caller may keep.
func (a *A2C) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return a.live.probs(a.Actor, a.Enc.Forward(g, x), mask)
}

// SelectAction samples from the masked policy.
func (a *A2C) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	p := a.Probs(g, x, mask)
	return Sample(a.rng, p)
}

// GreedyAction returns argmax of the masked policy.
func (a *A2C) GreedyAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	p := a.Probs(g, x, mask)
	best, bi := -1.0, 0
	for i, v := range p {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Value estimates V(s) from the mean-pooled embedding.
func (a *A2C) Value(g *gnn.Graph, x *nn.Mat) float64 {
	a.pooled = nn.MeanRowsInto(a.pooled, a.Enc.Forward(g, x))
	return a.Critic.Forward(a.pooled).At(0, 0)
}

// Stats summarizes one update.
type Stats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
}

// Update performs one A2C step over a trajectory of transitions using
// discounted Monte-Carlo returns bootstrapped from the critic's value of
// the final state. It trains encoder, actor and critic jointly.
func (a *A2C) Update(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	// Compute returns back-to-front, bootstrapping with the value of the
	// last state (continuing task).
	returns := grow(&a.returns, len(batch))
	last := batch[len(batch)-1]
	run := a.Value(last.Graph, last.X)
	for i := len(batch) - 1; i >= 0; i-- {
		run = batch[i].Reward + a.Gamma*run
		returns[i] = run
	}

	for _, p := range a.ps {
		p.Grad.Zero()
	}
	var st Stats
	for i, tr := range batch {
		if tr.Action < 0 || tr.Action >= tr.Graph.N {
			panic(fmt.Sprintf("rl: action %d out of range %d", tr.Action, tr.Graph.N))
		}
		// Forward pass (fresh caches for this transition).
		emb := a.Enc.Forward(tr.Graph, tr.X)
		probs := a.live.forward(a.Actor, emb, tr.Mask)

		a.pooled = nn.MeanRowsInto(a.pooled, emb)
		v := a.Critic.Forward(a.pooled).At(0, 0)
		adv := returns[i] - v

		// Critic gradient: d/dv of (ret - v)^2 = -2 adv.
		a.dV = nn.Reuse(a.dV, 1, 1)
		a.dV.Data[0] = -2 * adv / float64(len(batch))
		dPooled := a.Critic.Backward(a.dV)

		// Actor gradient: policy-gradient through masked softmax plus
		// entropy bonus. dL/dlogit_j = (π_j − 1{j=a})·A − β·dH/dlogit_j,
		// with dH/dlogit_j = −π_j (log π_j + H). probs has one entry per
		// actor row; a node the actor did not score has π = 0.
		ent := 0.0
		for _, p := range probs {
			if p > 0 {
				ent -= p * math.Log(p)
			}
		}
		st.Entropy += ent
		a.dLogits = nn.Reuse(a.dLogits, len(probs), 1)
		a.dLogits.Zero()
		scale := 1.0 / float64(len(batch))
		pa := 0.0 // π(tr.Action)
		for j, p := range probs {
			node := a.live.rows[j]
			if node == tr.Action {
				pa = p
			}
			if tr.Mask != nil && !tr.Mask[node] {
				continue // masked logits receive no gradient
			}
			g := p * adv
			if node == tr.Action {
				g -= adv
			}
			// entropy derivative
			if p > 0 {
				g += a.Entropy * p * (math.Log(p) + ent)
			}
			a.dLogits.Data[j] = g * scale
		}
		dEmb := a.live.backward(a.Actor, a.dLogits, emb.R)

		// Combine embedding gradients: actor path + critic pooled path,
		// summed in place in the actor's input-gradient buffer.
		inv := 1.0 / float64(emb.R)
		for r := 0; r < emb.R; r++ {
			row := dEmb.Row(r)
			for c := range row {
				row[c] += dPooled.At(0, c) * inv
			}
		}
		a.Enc.Backward(dEmb)

		if pa > 0 {
			st.PolicyLoss += -math.Log(pa) * adv * scale
		}
		st.ValueLoss += adv * adv * scale
	}
	nn.ClipGrads(a.ps, 5)
	a.opt.Step(a.ps)
	st.Entropy /= float64(len(batch))
	return st
}

// grow resizes *s to n, reallocating only when it lacks the capacity,
// and returns it. The contents are unspecified.
func grow(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// Sample draws an index from the distribution probs with one
// rng.Float64. When rounding leaves the cumulative sum at or below the
// draw, it returns the last index with nonzero probability, so it never
// picks a node the mask filtered out.
func Sample(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	for i := len(probs) - 1; i >= 0; i-- {
		if probs[i] > 0 {
			return i
		}
	}
	return len(probs) - 1
}

// liveActor runs a shared-weight actor on the rows of an embedding that
// a context-filter mask admits, the live rows. Every actor layer works
// row by row, so a live row's logit is the one a full pass computes, and
// the softmax over the live logits alone takes the same maximum and sum
// in the same order as the masked softmax over all of them. In a full
// backward pass a masked row carries +0 through every layer and adds
// only ±0 terms to gradient sums that start at +0 and so never hold −0:
// leaving those rows out changes no bit (DESIGN.md §4.9). Buffers are
// sized by the largest row set seen and reused.
type liveActor struct {
	rows []int     // embedding row of each actor row, ascending
	x    *nn.Mat   // the live rows of the embedding, gathered
	p    []float64 // softmax over the actor rows
	dEmb *nn.Mat   // the actor's input gradient scattered to every row
}

// forward runs actor on the live rows of emb and returns the softmax of
// their logits, entry j belonging to node rows[j]. A nil mask, or one
// that admits every row or none, runs the actor on emb itself, and the
// softmax keeps the mask: an all-false mask gives the uniform fallback.
// The result is valid until the next forward.
func (l *liveActor) forward(actor *nn.MLP, emb *nn.Mat, mask []bool) []float64 {
	n := emb.R
	l.rows = l.rows[:0]
	for i := 0; i < n; i++ {
		if mask == nil || mask[i] {
			l.rows = append(l.rows, i)
		}
	}
	if len(l.rows) == 0 {
		for i := 0; i < n; i++ {
			l.rows = append(l.rows, i)
		}
	}
	if len(l.rows) == n {
		return nn.SoftmaxRowInto(grow(&l.p, n), actor.Forward(emb).Data, mask)
	}
	l.x = nn.Reuse(l.x, len(l.rows), emb.C)
	for j, r := range l.rows {
		copy(l.x.Row(j), emb.Row(r))
	}
	return nn.SoftmaxRowInto(grow(&l.p, len(l.rows)), actor.Forward(l.x).Data, nil)
}

// probs is forward scattered into a fresh n-row distribution the caller
// may keep, +0 for every node the actor did not score.
func (l *liveActor) probs(actor *nn.MLP, emb *nn.Mat, mask []bool) []float64 {
	out := make([]float64, emb.R)
	for j, p := range l.forward(actor, emb, mask) {
		out[l.rows[j]] = p
	}
	return out
}

// backward runs the actor's backward pass from dLogits (one row per
// actor row of the last forward) and returns ∂L/∂emb for all n rows:
// the actor's own input gradient when it scored every row, and otherwise
// that gradient scattered into a zeroed buffer. The caller may modify it.
func (l *liveActor) backward(actor *nn.MLP, dLogits *nn.Mat, n int) *nn.Mat {
	dx := actor.Backward(dLogits)
	if len(l.rows) == n {
		return dx
	}
	l.dEmb = nn.Reuse(l.dEmb, n, dx.C)
	l.dEmb.Zero()
	for j, r := range l.rows {
		copy(l.dEmb.Row(r), dx.Row(j))
	}
	return l.dEmb
}

// SAC is a discrete Soft Actor-Critic agent: twin Q heads, entropy
// temperature, and target networks with polyak averaging. It backs the
// GNN-SAC baseline of Figure 11(c). The paper notes SAC "struggles to
// calculate strategy differences" versus A2C's advantage mechanism.
type SAC struct {
	Enc         gnn.Encoder
	Actor       *nn.MLP
	Q1, Q2      *nn.MLP
	T1, T2      *nn.MLP // target copies of Q1/Q2
	Gamma       float64
	Alpha       float64 // entropy temperature
	Tau         float64 // polyak factor
	optPi, optQ *nn.Adam
	rng         *rand.Rand
	// qparams (encoder + Q heads) and piparams (actor) are the two
	// optimizer groups, collected once.
	qparams, piparams []*nn.Param

	live liveActor // the actor on the rows the mask admits
	// Update scratch, reused across calls.
	vals              []float64
	dq1, dq2, dLogits *nn.Mat
}

// NewSAC builds a discrete SAC agent over embDim encoder outputs.
func NewSAC(enc gnn.Encoder, embDim int, rng *rand.Rand) *SAC {
	mk := func() *nn.MLP { return nn.NewMLP(rng, embDim, 256, 128, 32, 1) }
	s := &SAC{
		Enc: enc, Actor: mk(), Q1: mk(), Q2: mk(),
		Gamma: 0.95, Alpha: 0.05, Tau: 0.05,
		optPi: nn.NewAdam(LearningRate), optQ: nn.NewAdam(LearningRate),
		rng: rng,
	}
	s.T1 = cloneMLP(s.Q1, embDim, rng)
	s.T2 = cloneMLP(s.Q2, embDim, rng)
	copyParams(s.T1, s.Q1)
	copyParams(s.T2, s.Q2)
	s.qparams = append(append(s.Enc.Params(), s.Q1.Params()...), s.Q2.Params()...)
	s.piparams = s.Actor.Params()
	return s
}

func cloneMLP(src *nn.MLP, embDim int, rng *rand.Rand) *nn.MLP {
	return nn.NewMLP(rng, embDim, 256, 128, 32, 1)
}

func copyParams(dst, src *nn.MLP) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		copy(dp[i].Val.Data, sp[i].Val.Data)
	}
}

func polyak(dst, src *nn.MLP, tau float64) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		for j := range dp[i].Val.Data {
			dp[i].Val.Data[j] = (1-tau)*dp[i].Val.Data[j] + tau*sp[i].Val.Data[j]
		}
	}
}

// Probs returns the masked SAC policy in a fresh slice the caller may
// keep.
func (s *SAC) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return s.live.probs(s.Actor, s.Enc.Forward(g, x), mask)
}

// SelectAction samples from the masked policy.
func (s *SAC) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	return Sample(s.rng, s.Probs(g, x, mask))
}

// Update performs one SAC step over consecutive transitions (each next
// state is the following transition's state; the last bootstraps from
// itself).
func (s *SAC) Update(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	var st Stats
	// --- Q update ---
	for _, p := range s.qparams {
		p.Grad.Zero()
	}
	scale := 1.0 / float64(len(batch))
	for i, tr := range batch {
		next := tr
		if i+1 < len(batch) {
			next = batch[i+1]
		}
		// Target: r + γ Σ_a' π(a'|s') (minQ'(s',a') − α log π(a'|s')).
		nextEmb := s.Enc.Forward(next.Graph, next.X)
		np := s.live.forward(s.Actor, nextEmb, next.Mask)
		t1 := s.T1.Forward(nextEmb)
		t2 := s.T2.Forward(nextEmb)
		target := 0.0
		for j, p := range np {
			if p <= 0 {
				continue
			}
			r := s.live.rows[j]
			q := math.Min(t1.At(r, 0), t2.At(r, 0))
			target += p * (q - s.Alpha*math.Log(p))
		}
		y := tr.Reward + s.Gamma*target

		// The encoder's output buffer now holds emb; nextEmb is spent.
		emb := s.Enc.Forward(tr.Graph, tr.X)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		d1 := q1.At(tr.Action, 0) - y
		d2 := q2.At(tr.Action, 0) - y
		st.ValueLoss += (d1*d1 + d2*d2) * scale

		s.dq1 = nn.Reuse(s.dq1, emb.R, 1)
		s.dq1.Zero()
		s.dq1.Set(tr.Action, 0, 2*d1*scale)
		s.dq2 = nn.Reuse(s.dq2, emb.R, 1)
		s.dq2.Zero()
		s.dq2.Set(tr.Action, 0, 2*d2*scale)
		dEmb := s.Q1.Backward(s.dq1)
		nn.AddInPlace(dEmb, s.Q2.Backward(s.dq2))
		s.Enc.Backward(dEmb)
	}
	nn.ClipGrads(s.qparams, 5)
	s.optQ.Step(s.qparams)

	// --- policy update ---
	for _, p := range s.piparams {
		p.Grad.Zero()
	}
	for _, tr := range batch {
		emb := s.Enc.Forward(tr.Graph, tr.X)
		probs := s.live.forward(s.Actor, emb, tr.Mask)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		// L = Σ_a π(a)(α log π(a) − minQ(a)); dL/dlogit via softmax chain.
		// g_j = π_j [ (α log π_j − q_j) − Σ_k π_k (α log π_k − q_k) + α ]
		// minus the same for the baseline; compact form below.
		mean := 0.0
		vals := grow(&s.vals, len(probs))
		clear(vals)
		for j, p := range probs {
			if p <= 0 {
				continue
			}
			r := s.live.rows[j]
			vals[j] = s.Alpha*math.Log(p) - math.Min(q1.At(r, 0), q2.At(r, 0))
			mean += p * vals[j]
			st.PolicyLoss += p * vals[j] * scale
		}
		s.dLogits = nn.Reuse(s.dLogits, len(probs), 1)
		s.dLogits.Zero()
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[s.live.rows[j]] {
				continue
			}
			if p <= 0 {
				continue
			}
			g := p * (vals[j] - mean + s.Alpha)
			s.dLogits.Set(j, 0, g*scale)
		}
		s.Actor.Backward(s.dLogits)
	}
	nn.ClipGrads(s.piparams, 5)
	s.optPi.Step(s.piparams)

	polyak(s.T1, s.Q1, s.Tau)
	polyak(s.T2, s.Q2, s.Tau)
	return st
}
