package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// The live-row actor must reproduce, bit for bit, the full-row passes it
// replaced: the actor scoring every node and the mask zeroing the
// filtered ones afterwards. probsFull and updateFull below are those
// passes, kept as the reference; the tests run twin agents built from
// one seed, one through each path, and compare every probability, every
// Stats field and every parameter and gradient bitwise.

func (a *A2C) probsFull(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return nn.SoftmaxRow(a.Actor.Forward(a.Enc.Forward(g, x)).Data, mask)
}

func (a *A2C) updateFull(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
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
		emb := a.Enc.Forward(tr.Graph, tr.X)
		probs := nn.SoftmaxRow(a.Actor.Forward(emb).Data, tr.Mask)

		a.pooled = nn.MeanRowsInto(a.pooled, emb)
		v := a.Critic.Forward(a.pooled).At(0, 0)
		adv := returns[i] - v

		a.dV = nn.Reuse(a.dV, 1, 1)
		a.dV.Data[0] = -2 * adv / float64(len(batch))
		dPooled := a.Critic.Backward(a.dV)

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
				continue
			}
			g := p * adv
			if j == tr.Action {
				g -= adv
			}
			if p > 0 {
				g += a.Entropy * p * (math.Log(p) + ent)
			}
			a.dLogits.Data[j] = g * scale
		}
		dEmb := a.Actor.Backward(a.dLogits)
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

func (a *A2C) allParams() []*nn.Param { return a.ps }

func (s *SAC) probsFull(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	return nn.SoftmaxRow(s.Actor.Forward(s.Enc.Forward(g, x)).Data, mask)
}

func (s *SAC) updateFull(batch []Transition) Stats {
	if len(batch) == 0 {
		return Stats{}
	}
	var st Stats
	for _, p := range s.qparams {
		p.Grad.Zero()
	}
	scale := 1.0 / float64(len(batch))
	for i, tr := range batch {
		next := tr
		if i+1 < len(batch) {
			next = batch[i+1]
		}
		nextEmb := s.Enc.Forward(next.Graph, next.X)
		np := nn.SoftmaxRow(s.Actor.Forward(nextEmb).Data, next.Mask)
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

	for _, p := range s.piparams {
		p.Grad.Zero()
	}
	for _, tr := range batch {
		emb := s.Enc.Forward(tr.Graph, tr.X)
		probs := nn.SoftmaxRow(s.Actor.Forward(emb).Data, tr.Mask)
		q1 := s.Q1.Forward(emb)
		q2 := s.Q2.Forward(emb)
		mean := 0.0
		vals := make([]float64, tr.Graph.N)
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

func (s *SAC) allParams() []*nn.Param {
	ps := append(append([]*nn.Param(nil), s.qparams...), s.piparams...)
	return append(append(ps, s.T1.Params()...), s.T2.Params()...)
}

type oracleAgent interface {
	Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64
	Update(batch []Transition) Stats
	probsFull(g *gnn.Graph, x *nn.Mat, mask []bool) []float64
	updateFull(batch []Transition) Stats
	allParams() []*nn.Param
}

// twinAgents builds two identical agents from one seed: the first is
// run through the live-row path, the second through the reference.
func twinAgents(agentName, encName string, seed int64) (live, ref oracleAgent) {
	mk := func() oracleAgent {
		rng := rand.New(rand.NewSource(seed))
		enc := goldenEncoder(encName, rng)
		if agentName == "sac" {
			return NewSAC(enc, goldenEmb, rng)
		}
		return NewA2C(enc, goldenEmb, rng)
	}
	return mk(), mk()
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkLiveRows runs each batch through both twins: the distribution of
// every state, then one update, then every parameter and gradient.
func checkLiveRows(t testing.TB, live, ref oracleAgent, g *gnn.Graph, batches [][]Transition) {
	t.Helper()
	for b, batch := range batches {
		for i, tr := range batch {
			sameBits(t, fmt.Sprintf("batch %d state %d probs", b, i),
				live.Probs(g, tr.X, tr.Mask), ref.probsFull(g, tr.X, tr.Mask))
		}
		st, want := live.Update(batch), ref.updateFull(batch)
		sameBits(t, fmt.Sprintf("batch %d stats", b),
			[]float64{st.PolicyLoss, st.ValueLoss, st.Entropy},
			[]float64{want.PolicyLoss, want.ValueLoss, want.Entropy})
		lp, rp := live.allParams(), ref.allParams()
		for k := range lp {
			sameBits(t, fmt.Sprintf("batch %d %s value", b, lp[k].Name), lp[k].Val.Data, rp[k].Val.Data)
			sameBits(t, fmt.Sprintf("batch %d %s grad", b, lp[k].Name), lp[k].Grad.Data, rp[k].Grad.Data)
		}
	}
}

// liveMask returns a mask admitting k random nodes of n; k < 0 gives nil.
func liveMask(rng *rand.Rand, n, k int) []bool {
	if k < 0 {
		return nil
	}
	mask := make([]bool, n)
	for _, i := range rng.Perm(n)[:k] {
		mask[i] = true
	}
	return mask
}

// oracleBatch builds one transition per live-row count in ks. Actions
// are live nodes, except that every third transition with a filtered
// node takes one, which Update must score as probability 0.
func oracleBatch(rng *rand.Rand, g *gnn.Graph, ks []int) []Transition {
	batch := make([]Transition, len(ks))
	for i, k := range ks {
		x, _ := goldenState(rng, g.N, 0)
		mask := liveMask(rng, g.N, k)
		a, wantLive := rng.Intn(g.N), i%3 != 2
		for mask != nil && k > 0 && k < g.N && mask[a] != wantLive {
			a = rng.Intn(g.N)
		}
		batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: a, Reward: rng.Float64()}
	}
	return batch
}

func TestLiveRowsMatchFullRows(t *testing.T) {
	g := goldenGraph()
	n := g.N
	// Live-row counts per transition (-1 = nil mask): every fallback
	// (nil, all live, none live), a single live row, and live sets that
	// shrink and grow within one batch.
	schedule := [][]int{
		{-1, n, 0, 1},
		{12, 9, 5, 2, 1, 3, 8, 15},
		{1, n, 6, 0, 11, -1, 4, 13},
	}
	for _, agentName := range []string{"a2c", "sac"} {
		for _, encName := range []string{"sage", "gcn", "gat", "native"} {
			for _, seed := range []int64{42, 7} {
				t.Run(fmt.Sprintf("%s/%s/%d", agentName, encName, seed), func(t *testing.T) {
					live, ref := twinAgents(agentName, encName, seed)
					rng := rand.New(rand.NewSource(seed + 1))
					batches := make([][]Transition, len(schedule))
					for i, ks := range schedule {
						batches[i] = oracleBatch(rng, g, ks)
					}
					checkLiveRows(t, live, ref, g, batches)
				})
			}
		}
	}
}

// FuzzLiveRows drives both agents over fuzzer-chosen masks (two bytes,
// sixteen nodes, per transition) and features (signed bytes scaled to
// [-4, 4), reused cyclically) and compares the live-row path with the
// full-row reference bitwise.
func FuzzLiveRows(f *testing.F) {
	f.Add(int64(1), []byte{0xff, 0xff}, []byte{1, 2, 3})
	f.Add(int64(2), []byte{0, 0, 1, 0, 0x5a, 0xc3}, []byte{0, 0x80, 0x7f, 0, 9})
	f.Add(int64(3), []byte{0x10, 0x01, 0xfe, 0xff, 0, 0x80, 0x33, 0x33}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, masks, feats []byte) {
		g := goldenGraph()
		rng := rand.New(rand.NewSource(seed))
		batch := make([]Transition, max(1, min(len(masks)/2, 4)))
		for i := range batch {
			mask := make([]bool, g.N)
			var bits uint16
			if 2*i+1 < len(masks) {
				bits = uint16(masks[2*i]) | uint16(masks[2*i+1])<<8
			}
			for j := range mask {
				mask[j] = bits&(1<<j) != 0
			}
			x := nn.NewMat(g.N, goldenFeatures)
			for j := range x.Data {
				if len(feats) > 0 {
					x.Data[j] = float64(int8(feats[(i*len(x.Data)+j)%len(feats)])) / 32
				}
			}
			batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: rng.Intn(g.N), Reward: rng.Float64()}
		}
		for _, agentName := range []string{"a2c", "sac"} {
			live, ref := twinAgents(agentName, "sage", seed)
			checkLiveRows(t, live, ref, g, [][]Transition{batch, batch})
		}
	})
}
