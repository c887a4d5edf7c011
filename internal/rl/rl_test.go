package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// banditEnv is a contextual bandit over a small graph: each node has a
// hidden "goodness" encoded in its first feature; picking the best node
// yields reward 1, others proportionally less. It exercises the full
// encoder+policy pipeline.
type banditEnv struct {
	g    *gnn.Graph
	rng  *rand.Rand
	best int
	x    *nn.Mat
}

func newBandit(rng *rand.Rand, n int) *banditEnv {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return &banditEnv{g: gnn.NewGraph(n, edges), rng: rng}
}

func (b *banditEnv) reset() {
	n := b.g.N
	b.x = nn.NewMat(n, 3)
	b.best = b.rng.Intn(n)
	for i := 0; i < n; i++ {
		if i == b.best {
			b.x.Set(i, 0, 1)
		}
		b.x.Set(i, 1, b.rng.Float64()*0.1)
		b.x.Set(i, 2, 1)
	}
}

func (b *banditEnv) reward(a int) float64 {
	if a == b.best {
		return 1
	}
	return 0
}

func TestA2CLearnsContextualBandit(t *testing.T) {
	// Native encoder: the bandit's "which node holds the flag" task is
	// unambiguous per-node, so the agent should become near-perfect.
	// (Mean-aggregating encoders blur the flag over neighbours; their
	// integration is covered by TestA2CWithSAGEImproves.)
	rng := rand.New(rand.NewSource(1))
	enc := gnn.NewNative(rng, 3, 16, 16)
	agent := NewA2C(enc, 16, rng)
	agent.Gamma = 0 // bandit: no bootstrapping across episodes
	agent.SetLR(2e-3)
	env := newBandit(rng, 6)

	score := func(trials int, greedy bool) float64 {
		hits := 0
		for i := 0; i < trials; i++ {
			env.reset()
			var a int
			if greedy {
				a = agent.GreedyAction(env.g, env.x, nil)
			} else {
				a = agent.SelectAction(env.g, env.x, nil)
			}
			if a == env.best {
				hits++
			}
		}
		return float64(hits) / float64(trials)
	}

	before := score(200, true)
	for epoch := 0; epoch < 150; epoch++ {
		var batch []Transition
		for i := 0; i < 16; i++ {
			env.reset()
			a := agent.SelectAction(env.g, env.x, nil)
			batch = append(batch, Transition{Graph: env.g, X: env.x, Action: a, Reward: env.reward(a)})
		}
		agent.Update(batch)
	}
	after := score(200, true)
	if after < 0.9 {
		t.Fatalf("A2C accuracy %.2f -> %.2f, want >= 0.9", before, after)
	}
}

func TestA2CWithSAGEImproves(t *testing.T) {
	// With a GraphSAGE encoder the flag is smeared over neighbours, so
	// demand a large improvement over the uniform-random 1/6 baseline
	// rather than near-perfect accuracy.
	rng := rand.New(rand.NewSource(17))
	enc := gnn.NewSAGE(rng, 0, 3, 16, 16)
	agent := NewA2C(enc, 16, rng)
	agent.Gamma = 0
	agent.SetLR(2e-3)
	env := newBandit(rng, 6)
	for epoch := 0; epoch < 150; epoch++ {
		var batch []Transition
		for i := 0; i < 16; i++ {
			env.reset()
			a := agent.SelectAction(env.g, env.x, nil)
			batch = append(batch, Transition{Graph: env.g, X: env.x, Action: a, Reward: env.reward(a)})
		}
		agent.Update(batch)
	}
	hits := 0
	for i := 0; i < 300; i++ {
		env.reset()
		if agent.GreedyAction(env.g, env.x, nil) == env.best {
			hits++
		}
	}
	if float64(hits)/300 < 0.45 { // >2.5x better than random (1/6)
		t.Fatalf("A2C+SAGE greedy accuracy %d/300", hits)
	}
}

func TestA2CMaskingForbidsInvalidActions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := gnn.NewSAGE(rng, 0, 3, 8, 8)
	agent := NewA2C(enc, 8, rng)
	env := newBandit(rng, 5)
	env.reset()
	mask := []bool{false, false, true, false, false}
	for i := 0; i < 50; i++ {
		if a := agent.SelectAction(env.g, env.x, mask); a != 2 {
			t.Fatalf("masked selection returned %d", a)
		}
	}
	p := agent.Probs(env.g, env.x, mask)
	for i, v := range p {
		if i != 2 && v != 0 {
			t.Fatalf("masked prob[%d] = %g", i, v)
		}
	}
	if math.Abs(p[2]-1) > 1e-12 {
		t.Fatalf("valid prob = %g", p[2])
	}
}

func TestA2CUpdateEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	agent := NewA2C(gnn.NewNative(rng, 3, 8, 8), 8, rng)
	st := agent.Update(nil)
	if st.PolicyLoss != 0 || st.ValueLoss != 0 {
		t.Fatal("empty update should be a no-op")
	}
}

func TestA2CPanicsOnBadAction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	enc := gnn.NewNative(rng, 3, 8, 8)
	agent := NewA2C(enc, 8, rng)
	env := newBandit(rng, 4)
	env.reset()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range action")
		}
	}()
	agent.Update([]Transition{{Graph: env.g, X: env.x, Action: 99, Reward: 0}})
}

func TestA2CValueTracksReturns(t *testing.T) {
	// With constant reward 1 and gamma 0.5, returns converge to 2;
	// the critic should approach that after training.
	rng := rand.New(rand.NewSource(5))
	enc := gnn.NewNative(rng, 3, 8, 8)
	agent := NewA2C(enc, 8, rng)
	agent.Gamma = 0.5
	env := newBandit(rng, 4)
	env.reset()
	for epoch := 0; epoch < 300; epoch++ {
		var batch []Transition
		for i := 0; i < 8; i++ {
			a := agent.SelectAction(env.g, env.x, nil)
			batch = append(batch, Transition{Graph: env.g, X: env.x, Action: a, Reward: 1})
		}
		agent.Update(batch)
	}
	v := agent.Value(env.g, env.x)
	if math.Abs(v-2) > 0.5 {
		t.Fatalf("critic value %g, want ~2", v)
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[Sample(rng, p)]++
	}
	if counts[1] < 6500 || counts[1] > 7500 {
		t.Fatalf("sample counts %v", counts)
	}
	if counts[0] < 700 || counts[0] > 1300 {
		t.Fatalf("sample counts %v", counts)
	}
}

// A distribution whose rounded sum falls short of 1 must not hand a
// draw above that sum to a trailing masked (zero-probability) node.
func TestSampleNeverPicksZeroProbability(t *testing.T) {
	p := []float64{0.3, 0.5, 0, 0.1, 0, 0}
	rng, draws := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		want := 3
		switch u := draws.Float64(); {
		case u < p[0]:
			want = 0
		case u < p[0]+p[1]:
			want = 1
		}
		if got := Sample(rng, p); got != want {
			t.Fatalf("draw %d: Sample = %d, want %d", i, got, want)
		}
	}
}

func TestSACLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := gnn.NewSAGE(rng, 0, 3, 16, 16)
	agent := NewSAC(enc, 16, rng)
	agent.Gamma = 0
	env := newBandit(rng, 5)

	for epoch := 0; epoch < 200; epoch++ {
		var batch []Transition
		for i := 0; i < 16; i++ {
			env.reset()
			a := agent.SelectAction(env.g, env.x, nil)
			batch = append(batch, Transition{Graph: env.g, X: env.x, Action: a, Reward: env.reward(a)})
		}
		agent.Update(batch)
	}
	hits := 0
	for i := 0; i < 200; i++ {
		env.reset()
		p := agent.Probs(env.g, env.x, nil)
		best, bi := -1.0, 0
		for j, v := range p {
			if v > best {
				best, bi = v, j
			}
		}
		if bi == env.best {
			hits++
		}
	}
	if hits < 140 { // SAC keeps more entropy; 70% greedy accuracy is plenty
		t.Fatalf("SAC greedy accuracy %d/200", hits)
	}
}

func TestSACMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	enc := gnn.NewNative(rng, 3, 8, 8)
	agent := NewSAC(enc, 8, rng)
	env := newBandit(rng, 4)
	env.reset()
	mask := []bool{false, true, false, false}
	for i := 0; i < 20; i++ {
		if a := agent.SelectAction(env.g, env.x, mask); a != 1 {
			t.Fatalf("masked SAC picked %d", a)
		}
	}
}

func TestSACTargetNetworksTrackSlowly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc := gnn.NewNative(rng, 3, 8, 8)
	agent := NewSAC(enc, 8, rng)
	// Targets start equal to Q networks.
	q := agent.Q1.Params()[0].Val.Data
	tgt := agent.T1.Params()[0].Val.Data
	for i := range q {
		if q[i] != tgt[i] {
			t.Fatal("target not initialized to Q")
		}
	}
	env := newBandit(rng, 4)
	env.reset()
	agent.Update([]Transition{{Graph: env.g, X: env.x, Action: 0, Reward: 1}})
	// After one update, Q moved but target only moved tau of the way.
	moved, lag := 0.0, 0.0
	for i := range q {
		moved += math.Abs(q[i] - tgt[i])
		lag += math.Abs(tgt[i])
	}
	if moved == 0 {
		t.Fatal("Q network did not move")
	}
}

func TestA2CEntropyRegularizationKeepsExploration(t *testing.T) {
	// With a huge entropy bonus, the policy should stay near uniform even
	// when one action always pays.
	rng := rand.New(rand.NewSource(10))
	enc := gnn.NewNative(rng, 3, 8, 8)
	agent := NewA2C(enc, 8, rng)
	agent.Entropy = 5
	agent.Gamma = 0
	env := newBandit(rng, 4)
	env.reset()
	for epoch := 0; epoch < 100; epoch++ {
		var batch []Transition
		for i := 0; i < 8; i++ {
			a := agent.SelectAction(env.g, env.x, nil)
			r := 0.0
			if a == 0 {
				r = 1
			}
			batch = append(batch, Transition{Graph: env.g, X: env.x, Action: a, Reward: r})
		}
		agent.Update(batch)
	}
	p := agent.Probs(env.g, env.x, nil)
	for _, v := range p {
		if v < 0.1 {
			t.Fatalf("entropy-regularized policy collapsed: %v", p)
		}
	}
}
