package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func env() (*engine.Engine, *topo.Topology) {
	s := sim.New()
	b := topo.NewBuilder()
	w := []res.Vector{res.V(4000, 8192, 500), res.V(4000, 8192, 500)}
	b.AddCluster(30, 120, res.V(8000, 16384, 1000), w)
	b.AddCluster(30.5, 120, res.V(8000, 16384, 1000), w) // ~55km: geo-nearby
	b.AddCluster(40, 120, res.V(8000, 16384, 1000), w)   // ~1100km: far
	tp := b.Build()
	e := engine.New(engine.Config{Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	return e, tp
}

func lcReq(e *engine.Engine, id int64, cluster topo.ClusterID) *engine.Request {
	return e.NewRequest(trace.Request{ID: id, Type: 1, Class: trace.LC, Cluster: cluster})
}

func TestRoundRobinCycles(t *testing.T) {
	e, tp := env()
	rr := &RoundRobin{}
	cands := CandidatesLC(e, 0, 0) // local only: workers 1,2
	var got []topo.NodeID
	for i := 0; i < 4; i++ {
		id, ok := rr.Pick(lcReq(e, int64(i), 0), cands)
		if !ok {
			t.Fatal("pick failed")
		}
		got = append(got, id)
	}
	w := tp.Cluster(0).Workers
	want := []topo.NodeID{w[0], w[1], w[0], w[1]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if _, ok := rr.Pick(lcReq(e, 9, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestLoadGreedyPicksIdlest(t *testing.T) {
	e, tp := env()
	w := tp.Cluster(0).Workers
	// Load worker 0 heavily.
	e.DispatchLocal(e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), w[0])
	lg := LoadGreedy{}
	id, ok := lg.Pick(lcReq(e, 2, 0), CandidatesLC(e, 0, 0))
	if !ok || id != w[1] {
		t.Fatalf("picked %d, want idle %d", id, w[1])
	}
	// Equal load -> lowest ID.
	e2, tp2 := env()
	id, _ = lg.Pick(lcReq(e2, 1, 0), CandidatesLC(e2, 0, 0))
	if id != tp2.Cluster(0).Workers[0] {
		t.Fatalf("tie-break picked %d", id)
	}
	if _, ok := lg.Pick(lcReq(e, 3, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestScoringBalancesLoadAndDistance(t *testing.T) {
	e, tp := env()
	sc := NewScoring(tp)
	// All idle: local worker should win over the distant cluster's.
	cands := CandidatesLC(e, 0, 5000) // includes far cluster
	id, ok := sc.Pick(lcReq(e, 1, 0), cands)
	if !ok {
		t.Fatal("pick failed")
	}
	if e.Node(id).Cluster != 0 {
		t.Fatalf("picked remote cluster %d while local idle", e.Node(id).Cluster)
	}
	// Saturate the local cluster: scoring should go nearby.
	for _, w := range tp.Cluster(0).Workers {
		for i := int64(0); i < 8; i++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: 100 + i, Type: 6, Class: trace.BE, Cluster: 0}), w)
		}
	}
	id, _ = sc.Pick(lcReq(e, 2, 0), cands)
	if e.Node(id).Cluster == 0 {
		t.Fatal("scoring stayed on saturated local cluster")
	}
	if _, ok := sc.Pick(lcReq(e, 3, 0), nil); ok {
		t.Fatal("empty candidates accepted")
	}
}

func TestCandidatesLCRespectsGeoRadius(t *testing.T) {
	e, _ := env()
	local := CandidatesLC(e, 0, 0)
	if len(local) != 2 {
		t.Fatalf("local candidates = %d", len(local))
	}
	near := CandidatesLC(e, 0, 500)
	if len(near) != 4 { // local + cluster 1
		t.Fatalf("500km candidates = %d", len(near))
	}
	all := CandidatesLC(e, 0, 5000)
	if len(all) != 6 {
		t.Fatalf("5000km candidates = %d", len(all))
	}
}

func TestCandidatesBEGlobal(t *testing.T) {
	e, _ := env()
	if got := len(CandidatesBE(e)); got != 6 {
		t.Fatalf("BE candidates = %d, want all 6 workers", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	_, tp := env()
	if (&RoundRobin{}).Name() != "k8s-native" {
		t.Fatal("RoundRobin name")
	}
	if (LoadGreedy{}).Name() != "load-greedy" {
		t.Fatal("LoadGreedy name")
	}
	if NewScoring(tp).Name() != "scoring" {
		t.Fatal("Scoring name")
	}
}

// Scoring reuses one RTT per run of same-cluster candidates; the pick
// must equal the direct per-candidate score in any candidate order,
// including orders that interleave clusters.
func TestScoringRTTReuseAnyOrder(t *testing.T) {
	e, tp := env()
	sc := NewScoring(tp)
	cands := CandidatesLC(e, 0, 5000)
	for i, n := range cands {
		for j := 0; j < i%3; j++ {
			e.DispatchLocal(e.NewRequest(trace.Request{ID: int64(100*i + j), Type: 6, Class: trace.BE, Cluster: 0}), n.ID)
		}
	}
	direct := func(r *engine.Request, cands []*engine.Node) topo.NodeID {
		master := tp.Cluster(r.Cluster).Master
		best, bestScore := cands[0], math.Inf(-1)
		for _, n := range cands {
			rttMs := float64(tp.RTT(master, n.ID)) / 1e6
			lcq, beq := n.QueueLen()
			score := sc.WFree*(1-n.ProjectedUtilization()) - sc.WLatency*(rttMs/100) - sc.WQueue*float64(lcq+beq)/10
			if score > bestScore || (score == bestScore && n.ID < best.ID) {
				best, bestScore = n, score
			}
		}
		return best.ID
	}
	rng := rand.New(rand.NewSource(1))
	perm := append([]*engine.Node(nil), cands...)
	for trial := 0; trial < 200; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		r := lcReq(e, int64(trial), topo.ClusterID(trial%len(tp.Clusters)))
		got, ok := sc.Pick(r, perm)
		if want := direct(r, perm); !ok || got != want {
			t.Fatalf("trial %d: Pick = %d, direct scoring = %d", trial, got, want)
		}
	}
}
