package rl

import (
	"math/rand"
	"testing"

	"repro/internal/gnn"
)

// updateBatch draws n transitions on g with goldenState's features and
// masks and uniformly random valid actions.
func updateBatch(rng *rand.Rand, g *gnn.Graph, n int) []Transition {
	batch := make([]Transition, n)
	for i := range batch {
		x, mask := goldenState(rng, g.N, i)
		a := rng.Intn(g.N)
		for mask != nil && !mask[a] {
			a = rng.Intn(g.N)
		}
		batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: a, Reward: rng.Float64()}
	}
	return batch
}

// Steady-state Update allocation budgets. After the first call has
// sized every buffer, an update allocates nothing at all; the budget is
// pinned at the testbed shape (16 nodes, the paper's 7→32→32 GraphSAGE
// with 256/128/32 heads) and must not grow with node count, layer width
// or a live-row count that varies between transitions (the live-row
// actor's buffers are sized by the largest live set).
func TestUpdateAllocationBudget(t *testing.T) {
	const budget = 0
	for _, tc := range []struct {
		name     string
		clusters int
		emb      int
	}{
		{"testbed", 4, goldenEmb},
		{"4x nodes", 16, goldenEmb},
		{"2x width", 4, 2 * goldenEmb},
	} {
		g := gnn.NewGraph(4*tc.clusters, clusterEdges(tc.clusters))
		for _, agentName := range []string{"a2c", "sac"} {
			rng := rand.New(rand.NewSource(1))
			enc := gnn.NewSAGE(rng, 3, goldenFeatures, tc.emb, tc.emb)
			var update func([]Transition) Stats
			if agentName == "a2c" {
				update = NewA2C(enc, tc.emb, rng).Update
			} else {
				update = NewSAC(enc, tc.emb, rng).Update
			}
			n := g.N
			for _, b := range []struct {
				name  string
				batch []Transition
			}{
				{"random masks", updateBatch(rng, g, 8)},
				{"varying live set", oracleBatch(rng, g, []int{1, n - 2, 0, n, n / 3, -1, n / 2, 2})},
			} {
				if allocs := testing.AllocsPerRun(2, func() { update(b.batch) }); allocs > budget {
					t.Errorf("%s %s, %s: Update allocates %v per call, budget %d", tc.name, agentName, b.name, allocs, budget)
				}
			}
		}
	}
}

// Probs allocates only the distribution it hands out, whatever the
// mask admits.
func TestProbsAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := goldenGraph()
	a2c := NewA2C(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	sac := NewSAC(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	states := oracleBatch(rng, g, []int{g.N, 1, 0, -1, 9, 4})
	for _, ag := range []goldenAgent{a2c, sac} {
		probs := func() {
			for _, tr := range states {
				ag.Probs(g, tr.X, tr.Mask)
			}
		}
		if n := testing.AllocsPerRun(2, probs) / float64(len(states)); n != 1 {
			t.Errorf("%T: Probs allocates %v per call, want 1", ag, n)
		}
	}
}

// Probs hands out a distribution DCG-BE caches for the rest of the
// dispatch round, so a later Probs (or Update) must not write into it.
func TestProbsReturnsFreshSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := goldenGraph()
	a2c := NewA2C(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	sac := NewSAC(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	for _, ag := range []goldenAgent{a2c, sac} {
		x, mask := goldenState(rng, g.N, 0)
		cached := ag.Probs(g, x, mask)
		keep := append([]float64(nil), cached...)
		for i := 0; i < 3; i++ {
			y, m := goldenState(rng, g.N, i+1)
			ag.Probs(g, y, m)
		}
		ag.Update(updateBatch(rng, g, 4))
		for i := range keep {
			if cached[i] != keep[i] {
				t.Fatalf("%T: cached distribution changed at %d: %v -> %v", ag, i, keep[i], cached[i])
			}
		}
	}
}

// BenchmarkA2CUpdate times one A2C update over 32 transitions at the
// testbed shape, the unit of DCG-BE's online training.
func BenchmarkA2CUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewA2C(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	batch := updateBatch(rng, goldenGraph(), 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(batch)
	}
}

// BenchmarkA2CProbs times one policy evaluation at the testbed shape.
func BenchmarkA2CProbs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewA2C(gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb), goldenEmb, rng)
	g := goldenGraph()
	x, mask := goldenState(rng, g.N, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Probs(g, x, mask)
	}
}
