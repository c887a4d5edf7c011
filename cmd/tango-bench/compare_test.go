package main

import "testing"

func baseSnap() *perfSnapshot {
	return &perfSnapshot{
		Schema:     "tango.perf-snapshot/v1",
		SolverNsOp: 1000, DinicNsOp: 500,
		EngineEventNs: 2000, CgroupResizeNsOp: 100,
		SolverPhases: []phaseRow{
			{Phase: "solve/mcnf", Calls: 10, NsOp: 900, BytesOp: 4096, AllocsOp: 8},
		},
		EnginePhases: []phaseRow{
			{Phase: "engine/dispatch", Calls: 2000, NsOp: 1500, BytesOp: 1024, AllocsOp: 4},
		},
	}
}

func countRegressions(rows []compareRow) (n int, names []string) {
	for _, r := range rows {
		if r.Regressed {
			n++
			names = append(names, r.Metric)
		}
	}
	return
}

func TestCompareIdenticalSnapshotsClean(t *testing.T) {
	rows := compareSnapshots(baseSnap(), baseSnap(), 25, 10)
	if n, names := countRegressions(rows); n != 0 {
		t.Fatalf("self compare regressed: %v", names)
	}
	if len(rows) != 8+2*3 {
		t.Fatalf("row count = %d, want 14", len(rows))
	}
}

// The allocation gate must catch regressions from a zero baseline: the
// hot-path phases are allocation-free by contract, and "0 allocs" is a
// real measurement, not a missing metric.
func TestCompareZeroBaselineAllocRegression(t *testing.T) {
	old := baseSnap()
	old.SolverPhases[0].AllocsOp = 0
	old.SolverPhases[0].BytesOp = 0
	ns := baseSnap()
	ns.SolverPhases[0].AllocsOp = 512
	ns.SolverPhases[0].BytesOp = 16384
	n, names := countRegressions(compareSnapshots(old, ns, 25, 10))
	if n != 2 {
		t.Fatalf("regressions = %v, want the mcnf allocs_op and bytes_op rows", names)
	}
	// Noise at or below the floor stays quiet...
	ns.SolverPhases[0].AllocsOp = allocCountFloor
	ns.SolverPhases[0].BytesOp = allocBytesFloor
	if n, names := countRegressions(compareSnapshots(old, ns, 25, 10)); n != 0 {
		t.Fatalf("floor-level allocs regressed: %v", names)
	}
	// ...and dropping to zero is an improvement, not a regression.
	imp := baseSnap()
	imp.SolverPhases[0].AllocsOp = 0
	imp.SolverPhases[0].BytesOp = 0
	if n, names := countRegressions(compareSnapshots(baseSnap(), imp, 25, 10)); n != 0 {
		t.Fatalf("N -> 0 allocs regressed: %v", names)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	ns := baseSnap()
	ns.SolverNsOp = 1400 // +40% > 25% limit
	rows := compareSnapshots(baseSnap(), ns, 25, 10)
	n, names := countRegressions(rows)
	if n != 1 || names[0] != "solver_ns_op" {
		t.Fatalf("regressions = %v, want [solver_ns_op]", names)
	}
	// Same delta under a looser limit is clean.
	if n, _ := countRegressions(compareSnapshots(baseSnap(), ns, 50, 10)); n != 0 {
		t.Fatalf("regression flagged despite +50%% limit")
	}
}

func TestComparePhaseAllocRegression(t *testing.T) {
	ns := baseSnap()
	ns.EnginePhases[0].BytesOp = 1200 // +17% > 10% alloc limit
	rows := compareSnapshots(baseSnap(), ns, 25, 10)
	n, names := countRegressions(rows)
	if n != 1 || names[0] != "engine:engine/dispatch bytes_op" {
		t.Fatalf("regressions = %v, want the dispatch bytes_op row", names)
	}
}

// Per-phase allocation deltas are read from runtime/metrics counters
// that flush one mcache span at a time, so a low-call-count phase can
// absorb a span's worth of someone else's allocations. Growth that
// stays under the run-total floors is attribution noise, not a leak.
func TestCompareAllocRunTotalFloor(t *testing.T) {
	old := baseSnap()
	old.EnginePhases = append(old.EnginePhases, phaseRow{Phase: "engine/collect", Calls: 12, BytesOp: 5400, AllocsOp: 50})
	ns := baseSnap()
	ns.EnginePhases = append(ns.EnginePhases, phaseRow{Phase: "engine/collect", Calls: 12, BytesOp: 13500, AllocsOp: 138})
	// +176% allocs but only ~1k objects / ~97KB across 12 calls: under
	// the counter granularity, so quiet.
	if n, names := countRegressions(compareSnapshots(old, ns, 25, 10)); n != 0 {
		t.Fatalf("sub-granularity alloc growth regressed: %v", names)
	}
	// The same per-op growth over enough calls is a real leak.
	ns.EnginePhases[1].Calls = 1200
	old.EnginePhases[1].Calls = 1200
	n, names := countRegressions(compareSnapshots(old, ns, 25, 10))
	if n != 2 {
		t.Fatalf("regressions = %v, want the collect bytes_op and allocs_op rows", names)
	}
}

func TestCompareShardRows(t *testing.T) {
	old := baseSnap()
	old.ShardNodes = 10000
	old.ShardRows = []shardRow{{Shards: 1, WallMs: 40000}, {Shards: 4, WallMs: 3000}}
	ns := baseSnap()
	ns.ShardNodes = 10000
	ns.ShardRows = []shardRow{{Shards: 1, WallMs: 41000}, {Shards: 4, WallMs: 3100}}
	if n, names := countRegressions(compareSnapshots(old, ns, 25, 10)); n != 0 {
		t.Fatalf("within-limit shard rows regressed: %v", names)
	}
	ns.ShardRows[1].WallMs = 4500 // +50% > 25% limit
	n, names := countRegressions(compareSnapshots(old, ns, 25, 10))
	if n != 1 || names[0] != "shard:k=4 wall_ms" {
		t.Fatalf("regressions = %v, want [shard:k=4 wall_ms]", names)
	}
	// Different fleet sizes are not comparable: rows are skipped.
	ns.ShardNodes = 2000
	if n, names := countRegressions(compareSnapshots(old, ns, 25, 10)); n != 0 {
		t.Fatalf("mismatched shard_nodes still compared: %v", names)
	}
	// A baseline predating the shard section never trips the gate.
	ns.ShardNodes = 10000
	if n, names := countRegressions(compareSnapshots(baseSnap(), ns, 25, 10)); n != 0 {
		t.Fatalf("shard rows vs pre-shard baseline regressed: %v", names)
	}
}

func TestCompareImprovementAndMissingSidesNeverRegress(t *testing.T) {
	ns := baseSnap()
	ns.SolverNsOp = 100                                             // big improvement
	ns.EnginePhases = append(ns.EnginePhases, phaseRow{Phase: "x"}) // phase only in new
	old := baseSnap()
	old.SolverPhases = append(old.SolverPhases, phaseRow{Phase: "y"}) // phase only in old
	old.CgroupResizeNsOp = 0                                          // metric absent in old
	if n, names := countRegressions(compareSnapshots(old, ns, 25, 10)); n != 0 {
		t.Fatalf("improvement/missing rows regressed: %v", names)
	}
}

// The learning-stack rows gate like the other ns/op rows, and a
// baseline taken before they existed leaves them informational.
func TestCompareLearningRows(t *testing.T) {
	old := baseSnap()
	old.RLUpdateNsOp, old.NNMatMulNsOp, old.RLProbsNsOp = 30e6, 150e3, 2e6
	ns := baseSnap()
	ns.RLUpdateNsOp, ns.NNMatMulNsOp = 45e6, 140e3 // update +50%, matmul -7%
	ns.RLProbsNsOp = 3e6                           // probs +50%
	n, names := countRegressions(compareSnapshots(old, ns, 25, 10))
	if n != 2 || names[0] != "rl_update_ns_op" || names[1] != "rl_probs_ns_op" {
		t.Fatalf("regressions = %v, want [rl_update_ns_op rl_probs_ns_op]", names)
	}
	if n, names := countRegressions(compareSnapshots(baseSnap(), ns, 25, 10)); n != 0 {
		t.Fatalf("rows missing from the baseline regressed: %v", names)
	}
}
