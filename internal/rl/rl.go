// Package rl implements the deep-reinforcement-learning substrate of
// DCG-BE (§5.3.2): Advantage Actor-Critic (A2C) with the paper's network
// shapes (three ReLU layers of 256/128/32 hidden units for both actor and
// critic, Adam with lr 2e-4), action masking ("policy context filtering"
// — invalid nodes get zero probability), and a discrete Soft Actor-Critic
// used by the GNN-SAC comparison baseline.
//
// Both agents act over a variable-size node set: the actor scores each
// node embedding with shared weights, so the same parameters work for any
// topology size — matching GraphSAGE's inductive encoding.
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

	// Update scratch, reused across calls.
	returns, probs      []float64
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

// logits computes the per-node action logits for the state: the actor's
// N×1 output, valid until the actor's next call.
func (a *A2C) logits(g *gnn.Graph, x *nn.Mat) []float64 {
	return a.Actor.Forward(a.Enc.Forward(g, x)).Data
}

// Probs returns the masked action distribution π(a|s) in a fresh slice
// the caller may keep.
func (a *A2C) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return nn.SoftmaxRow(a.logits(g, x), mask)
}

// SelectAction samples from the masked policy.
func (a *A2C) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	p := a.Probs(g, x, mask)
	return sample(a.rng, p)
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
		probs := nn.SoftmaxRowInto(grow(&a.probs, tr.Graph.N), a.Actor.Forward(emb).Data, tr.Mask)

		a.pooled = nn.MeanRowsInto(a.pooled, emb)
		v := a.Critic.Forward(a.pooled).At(0, 0)
		adv := returns[i] - v

		// Critic gradient: d/dv of (ret - v)^2 = -2 adv.
		a.dV = nn.Reuse(a.dV, 1, 1)
		a.dV.Data[0] = -2 * adv / float64(len(batch))
		dPooled := a.Critic.Backward(a.dV)

		// Actor gradient: policy-gradient through masked softmax plus
		// entropy bonus. dL/dlogit_j = (π_j − 1{j=a})·A − β·dH/dlogit_j,
		// with dH/dlogit_j = −π_j (log π_j + H).
		ent := 0.0
		for _, p := range probs {
			if p > 0 {
				ent -= p * math.Log(p)
			}
		}
		st.Entropy += ent
		a.dLogits = nn.Reuse(a.dLogits, tr.Graph.N, 1)
		a.dLogits.Zero()
		scale := 1.0 / float64(len(batch))
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[j] {
				continue // masked logits receive no gradient
			}
			g := p * adv
			if j == tr.Action {
				g -= adv
			}
			// entropy derivative
			if p > 0 {
				g += a.Entropy * p * (math.Log(p) + ent)
			}
			a.dLogits.Data[j] = g * scale
		}
		dEmb := a.Actor.Backward(a.dLogits)

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

		if probs[tr.Action] > 0 {
			st.PolicyLoss += -math.Log(probs[tr.Action]) * adv * scale
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

func sample(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1
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

	// Update scratch, reused across calls.
	probs, vals       []float64
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
	return nn.SoftmaxRow(s.Actor.Forward(s.Enc.Forward(g, x)).Data, mask)
}

// SelectAction samples from the masked policy.
func (s *SAC) SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int {
	return sample(s.rng, s.Probs(g, x, mask))
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
		np := nn.SoftmaxRowInto(grow(&s.probs, next.Graph.N), s.Actor.Forward(nextEmb).Data, next.Mask)
		t1 := s.T1.Forward(nextEmb)
		t2 := s.T2.Forward(nextEmb)
		target := 0.0
		for j, p := range np {
			if p <= 0 {
				continue
			}
			q := math.Min(t1.At(j, 0), t2.At(j, 0))
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
		probs := nn.SoftmaxRowInto(grow(&s.probs, tr.Graph.N), s.Actor.Forward(emb).Data, tr.Mask)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		// L = Σ_a π(a)(α log π(a) − minQ(a)); dL/dlogit via softmax chain.
		// g_j = π_j [ (α log π_j − q_j) − Σ_k π_k (α log π_k − q_k) + α ]
		// minus the same for the baseline; compact form below.
		mean := 0.0
		vals := grow(&s.vals, tr.Graph.N)
		clear(vals)
		for j, p := range probs {
			if p <= 0 {
				continue
			}
			vals[j] = s.Alpha*math.Log(p) - math.Min(q1.At(j, 0), q2.At(j, 0))
			mean += p * vals[j]
			st.PolicyLoss += p * vals[j] * scale
		}
		s.dLogits = nn.Reuse(s.dLogits, tr.Graph.N, 1)
		s.dLogits.Zero()
		for j, p := range probs {
			if tr.Mask != nil && !tr.Mask[j] {
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
