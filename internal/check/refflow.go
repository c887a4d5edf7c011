package check

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flow"
)

// Naive reference solvers for differential testing of internal/flow.
//
// RefGraph implements min-cost max-flow by successive shortest paths
// found with Bellman-Ford (no potentials, no heap — O(V·E) per
// augmentation) and plain max-flow with Edmonds-Karp BFS. Both are slow
// and obviously correct, which is the point: on small random instances
// the production SSP+Johnson solver, the Dinic solver and these must
// all agree on max-flow value, and SSP's cost must match the reference
// optimum.

const refUnbounded = math.MaxInt64 / 4

// RefEdge is one directed edge of a reference instance.
type RefEdge struct {
	From, To  int
	Cap, Cost int64
}

// RefGraph is an edge-list flow network for the reference solvers.
type RefGraph struct {
	N     int
	Edges []RefEdge
}

type refArc struct {
	to        int
	cap, cost int64
	rev       int // index of the reverse arc in adj[to]
}

func (g *RefGraph) residual() [][]refArc {
	adj := make([][]refArc, g.N)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], refArc{to: e.To, cap: e.Cap, cost: e.Cost, rev: len(adj[e.To])})
		adj[e.To] = append(adj[e.To], refArc{to: e.From, cap: 0, cost: -e.Cost, rev: len(adj[e.From]) - 1})
	}
	return adj
}

// MinCostMaxFlow routes up to limit units from src to sink along
// successively cheapest augmenting paths (Bellman-Ford over the
// residual network) and returns the total flow and its cost.
func (g *RefGraph) MinCostMaxFlow(src, sink int, limit int64) (int64, int64) {
	adj := g.residual()
	const inf = int64(math.MaxInt64 / 2)
	var totalFlow, totalCost int64
	prevNode := make([]int, g.N)
	prevArc := make([]int, g.N)
	for totalFlow < limit {
		dist := make([]int64, g.N)
		for i := range dist {
			dist[i] = inf
		}
		dist[src] = 0
		// SSP residual networks hold no negative cycles, so at most N-1
		// relaxation rounds reach a fixpoint.
		for round := 0; round < g.N; round++ {
			changed := false
			for u := range adj {
				if dist[u] == inf {
					continue
				}
				for ai, a := range adj[u] {
					if a.cap > 0 && dist[u]+a.cost < dist[a.to] {
						dist[a.to] = dist[u] + a.cost
						prevNode[a.to] = u
						prevArc[a.to] = ai
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		if dist[sink] == inf {
			break
		}
		push := limit - totalFlow
		for v := sink; v != src; v = prevNode[v] {
			if c := adj[prevNode[v]][prevArc[v]].cap; c < push {
				push = c
			}
		}
		for v := sink; v != src; v = prevNode[v] {
			a := &adj[prevNode[v]][prevArc[v]]
			a.cap -= push
			adj[v][a.rev].cap += push
		}
		totalFlow += push
		totalCost += push * dist[sink]
	}
	return totalFlow, totalCost
}

// MaxFlow computes the maximum src→sink flow with Edmonds-Karp
// (BFS-shortest augmenting paths), ignoring costs.
func (g *RefGraph) MaxFlow(src, sink int) int64 {
	adj := g.residual()
	prevNode := make([]int, g.N)
	prevArc := make([]int, g.N)
	var total int64
	for {
		for i := range prevNode {
			prevNode[i] = -1
		}
		prevNode[src] = src
		queue := []int{src}
		for len(queue) > 0 && prevNode[sink] == -1 {
			u := queue[0]
			queue = queue[1:]
			for ai, a := range adj[u] {
				if a.cap > 0 && prevNode[a.to] == -1 {
					prevNode[a.to] = u
					prevArc[a.to] = ai
					queue = append(queue, a.to)
				}
			}
		}
		if prevNode[sink] == -1 {
			return total
		}
		push := int64(refUnbounded)
		for v := sink; v != src; v = prevNode[v] {
			if c := adj[prevNode[v]][prevArc[v]].cap; c < push {
				push = c
			}
		}
		for v := sink; v != src; v = prevNode[v] {
			a := &adj[prevNode[v]][prevArc[v]]
			a.cap -= push
			adj[v][a.rev].cap += push
		}
		total += push
	}
}

// Instance is one MCNF problem buildable both as a production
// flow.Graph and as a RefGraph.
type Instance struct {
	Nodes     int
	Src, Sink int
	Edges     []RefEdge
}

// RandomInstance draws a bounded random instance: 2..maxNodes nodes, up
// to maxEdges edges (self-loops skipped, parallel edges allowed),
// capacities in [0,maxCap] (zero-capacity edges are kept deliberately)
// and costs in [0,maxCost].
func RandomInstance(rng *rand.Rand, maxNodes, maxEdges int, maxCap, maxCost int64) Instance {
	n := 2 + rng.Intn(maxNodes-1)
	m := rng.Intn(maxEdges + 1)
	in := Instance{Nodes: n, Src: 0, Sink: n - 1}
	for i := 0; i < m; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		in.Edges = append(in.Edges, RefEdge{
			From: from, To: to,
			Cap: rng.Int63n(maxCap + 1), Cost: rng.Int63n(maxCost + 1),
		})
	}
	return in
}

// DecodeInstance parses arbitrary fuzz bytes into a bounded instance:
// byte 0 picks the node count (2..9), each following 4-byte chunk is
// one (from, to, cap, cost) edge. Always total; ok is false only when
// the input is too short to name a node count.
func DecodeInstance(data []byte) (Instance, bool) {
	if len(data) < 1 {
		return Instance{}, false
	}
	n := 2 + int(data[0]%8)
	in := Instance{Nodes: n, Src: 0, Sink: n - 1}
	for rest := data[1:]; len(rest) >= 4 && len(in.Edges) < 24; rest = rest[4:] {
		from, to := int(rest[0])%n, int(rest[1])%n
		if from == to {
			continue
		}
		in.Edges = append(in.Edges, RefEdge{
			From: from, To: to,
			Cap: int64(rest[2] % 16), Cost: int64(rest[3] % 32),
		})
	}
	return in, true
}

// Graph builds the production graph for the instance, returning the
// edge IDs in Edges order.
func (in Instance) Graph() (*flow.Graph, []flow.EdgeID) {
	g := flow.NewGraph()
	g.AddNodes(in.Nodes)
	ids := make([]flow.EdgeID, len(in.Edges))
	for i, e := range in.Edges {
		ids[i] = g.AddEdge(e.From, e.To, e.Cap, e.Cost)
	}
	return g, ids
}

// Ref builds the reference graph for the instance.
func (in Instance) Ref() *RefGraph {
	return &RefGraph{N: in.Nodes, Edges: append([]RefEdge(nil), in.Edges...)}
}

// DiffCheck runs the production solvers and the reference solvers over
// one instance and returns an error describing the first disagreement:
//
//   - SSP, Dinic, Edmonds-Karp and reference-SSP must agree on the
//     max-flow value, and SSP's cost must equal the reference optimum;
//   - the SSP solution must be conserved with every per-edge flow in
//     [0, cap] and a source outflow equal to the reported value;
//   - solving for half the max flow must route exactly that much at the
//     reference cost for that amount (SSP optimality per flow value);
//   - Reset must restore the graph to byte-for-byte re-solvability.
func DiffCheck(in Instance) error {
	g, ids := in.Graph()
	r := g.MinCostFlow(in.Src, in.Sink, refUnbounded)
	if err := g.Conservation(in.Src, in.Sink); err != nil {
		return err
	}
	var srcOut int64
	for i, e := range in.Edges {
		f := g.Flow(ids[i])
		if f < 0 || f > e.Cap {
			return fmt.Errorf("edge %d (%d->%d): flow %d outside [0,%d]", i, e.From, e.To, f, e.Cap)
		}
		if e.From == in.Src {
			srcOut += f
		}
		if e.To == in.Src {
			srcOut -= f
		}
	}
	if srcOut != r.Flow {
		return fmt.Errorf("source net outflow %d != reported flow %d", srcOut, r.Flow)
	}

	gd, _ := in.Graph()
	dinic := gd.MaxFlowDinic(in.Src, in.Sink)
	refFlow, refCost := in.Ref().MinCostMaxFlow(in.Src, in.Sink, refUnbounded)
	ek := in.Ref().MaxFlow(in.Src, in.Sink)
	if r.Flow != dinic || r.Flow != refFlow || r.Flow != ek {
		return fmt.Errorf("max-flow disagreement: ssp=%d dinic=%d ref-ssp=%d edmonds-karp=%d",
			r.Flow, dinic, refFlow, ek)
	}
	if r.Cost != refCost {
		return fmt.Errorf("cost disagreement at flow %d: ssp=%d ref=%d", r.Flow, r.Cost, refCost)
	}

	// Limited-flow optimality: routing half the max must cost exactly the
	// reference optimum for that amount.
	if half := r.Flow / 2; half > 0 {
		gh, _ := in.Graph()
		rh := gh.MinCostFlow(in.Src, in.Sink, half)
		refHalfFlow, refHalfCost := in.Ref().MinCostMaxFlow(in.Src, in.Sink, half)
		if rh.Flow != half || refHalfFlow != half {
			return fmt.Errorf("limited solve routed %d (ref %d), want %d", rh.Flow, refHalfFlow, half)
		}
		if rh.Cost != refHalfCost {
			return fmt.Errorf("limited-solve cost disagreement: ssp=%d ref=%d", rh.Cost, refHalfCost)
		}
	}

	// Reset restores capacities: a re-solve must reproduce the result and
	// the per-edge flows exactly.
	before := make([]int64, len(ids))
	for i := range ids {
		before[i] = g.Flow(ids[i])
	}
	g.Reset()
	r2 := g.MinCostFlow(in.Src, in.Sink, refUnbounded)
	if r2 != r {
		return fmt.Errorf("re-solve after Reset: %+v, first solve %+v", r2, r)
	}
	for i := range ids {
		if f := g.Flow(ids[i]); f != before[i] {
			return fmt.Errorf("edge %d: flow %d after Reset re-solve, was %d", i, f, before[i])
		}
	}

	return warmCheck(in, r, before)
}

// warmCheck is the warm-start half of the oracle: a workspace-backed
// graph must produce bit-identical results — same Result, same per-edge
// flows — whether the first Dijkstra pass is computed cold or replayed
// from the memo, across Reset, across a Clear+rebuild period boundary,
// and across capacity-magnitude changes that keep the open-arc pattern.
func warmCheck(in Instance, cold flow.Result, coldFlows []int64) error {
	gw, ids := in.Graph()
	ws := flow.NewWorkspace()
	gw.SetWorkspace(ws)
	if gw.WarmedAt(0, in.Src) {
		return fmt.Errorf("fresh workspace claims warm")
	}
	// The first warm-started solve is necessarily cold and captures
	// the memo.
	w1 := gw.WarmStartAt(0, in.Src, in.Sink, refUnbounded)
	if w1 != cold {
		return fmt.Errorf("workspace cold solve %+v != plain solve %+v", w1, cold)
	}
	for i := range ids {
		if f := gw.Flow(ids[i]); f != coldFlows[i] {
			return fmt.Errorf("edge %d: workspace cold flow %d, plain %d", i, f, coldFlows[i])
		}
	}
	replay := func(stage string, g *flow.Graph, eids []flow.EdgeID, want flow.Result, wantFlows []int64, wantHits uint64) error {
		if !g.WarmedAt(0, in.Src) {
			return fmt.Errorf("%s: graph not warmed", stage)
		}
		r := g.WarmStartAt(0, in.Src, in.Sink, refUnbounded)
		if ws.WarmHits != wantHits {
			return fmt.Errorf("%s: WarmHits = %d, want %d", stage, ws.WarmHits, wantHits)
		}
		if r != want {
			return fmt.Errorf("%s: warm solve %+v != cold %+v", stage, r, want)
		}
		for i := range eids {
			if f := g.Flow(eids[i]); f != wantFlows[i] {
				return fmt.Errorf("%s: edge %d warm flow %d, cold %d", stage, i, f, wantFlows[i])
			}
		}
		return nil
	}
	// Reset keeps the memo valid: same shape, same source.
	gw.Reset()
	if err := replay("reset", gw, ids, cold, coldFlows, 1); err != nil {
		return err
	}
	// Period boundary: Clear, rebuild the same instance inside the
	// retained arenas, and the memo must still replay.
	gw.Clear()
	gw.AddNodes(in.Nodes)
	for i, e := range in.Edges {
		if id := gw.AddEdge(e.From, e.To, e.Cap, e.Cost); id != ids[i] {
			return fmt.Errorf("rebuild edge %d: id %d, want %d", i, id, ids[i])
		}
	}
	if err := replay("rebuild", gw, ids, cold, coldFlows, 2); err != nil {
		return err
	}
	// Capacity magnitudes may drift between periods without invalidating
	// the memo — only the open/closed pattern keys it. The warm solve of
	// the grown instance must match a cold solve of that same instance.
	mod := Instance{Nodes: in.Nodes, Src: in.Src, Sink: in.Sink,
		Edges: append([]RefEdge(nil), in.Edges...)}
	for i := range mod.Edges {
		if mod.Edges[i].Cap > 0 {
			mod.Edges[i].Cap = 2*mod.Edges[i].Cap + int64(i%3)
		}
	}
	gm, mids := mod.Graph()
	rm := gm.MinCostFlow(in.Src, in.Sink, refUnbounded)
	modFlows := make([]int64, len(mids))
	for i := range mids {
		modFlows[i] = gm.Flow(mids[i])
	}
	gw.Clear()
	gw.AddNodes(mod.Nodes)
	for _, e := range mod.Edges {
		gw.AddEdge(e.From, e.To, e.Cap, e.Cost)
	}
	if err := replay("capacity drift", gw, ids, rm, modFlows, 3); err != nil {
		return err
	}
	// A shape change (one edge's open/closed state flips) must fall back
	// to a cold solve, not replay a stale memo.
	if len(in.Edges) > 0 {
		alt := Instance{Nodes: in.Nodes, Src: in.Src, Sink: in.Sink,
			Edges: append([]RefEdge(nil), in.Edges...)}
		if alt.Edges[0].Cap > 0 {
			alt.Edges[0].Cap = 0
		} else {
			alt.Edges[0].Cap = 1
		}
		gw.Clear()
		gw.AddNodes(alt.Nodes)
		for _, e := range alt.Edges {
			gw.AddEdge(e.From, e.To, e.Cap, e.Cost)
		}
		if gw.WarmedAt(0, in.Src) {
			return fmt.Errorf("shape change: graph still claims warm")
		}
		ga, aids := alt.Graph()
		ra := ga.MinCostFlow(in.Src, in.Sink, refUnbounded)
		wa := gw.WarmStartAt(0, in.Src, in.Sink, refUnbounded)
		if ws.WarmHits != 3 {
			return fmt.Errorf("shape change: WarmHits = %d, want 3 (must not replay)", ws.WarmHits)
		}
		if wa != ra {
			return fmt.Errorf("shape change: warm-path solve %+v != cold %+v", wa, ra)
		}
		for i := range aids {
			if f1, f2 := gw.Flow(aids[i]), ga.Flow(aids[i]); f1 != f2 {
				return fmt.Errorf("shape change: edge %d flow %d, cold %d", i, f1, f2)
			}
		}
	}
	if ws.Solves < 4 {
		return fmt.Errorf("workspace counted %d solves, want >= 4", ws.Solves)
	}
	return nil
}
