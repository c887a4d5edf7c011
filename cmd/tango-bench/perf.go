package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/nn"
	"repro/internal/perf"
	"repro/internal/res"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Perf snapshot: a machine-readable baseline (BENCH_<date>.json) so
// future optimization PRs have a trajectory to compare against. Three
// hot paths are timed: the DSS-LC-shaped min-cost-flow solve (and the
// Dinic max-flow on the same graph), the end-to-end engine event rate
// of a standard Tango run, the cgroup two-level D-VPA resize, and the
// DCG-BE learning stack (one A2C update and its widest matmul). Each
// section also carries the phase profiler's per-phase ns/op and
// allocation breakdown, which is what `tango-bench -compare` diffs.

type perfSnapshot struct {
	Schema string `json:"schema"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	OSArch string `json:"os_arch"`
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick,omitempty"`

	// Solver: src -> master -> 200 workers -> sink, routing a 128-request
	// batch, Reset+re-solve per iteration on a workspace-backed graph
	// (the production DSS-LC configuration). The warm variant replays the
	// memoized first Dijkstra pass per period; solves/warm-hits come from
	// the profiled pass and prove the warm path was actually exercised.
	SolverWorkers  int     `json:"solver_workers"`
	SolverBatch    int     `json:"solver_batch"`
	SolverNsOp     float64 `json:"solver_ns_op"`
	SolverWarmNsOp float64 `json:"solver_warm_ns_op,omitempty"`
	SolverSolves   uint64  `json:"solver_solves,omitempty"`
	SolverWarmHits uint64  `json:"solver_warm_hits,omitempty"`
	DinicNsOp      float64 `json:"dinic_ns_op"`

	// Engine: PhysicalTestbed Tango run under P3; ns per fired
	// simulation event amortizes dispatch, admission and completion.
	EngineEvents  uint64  `json:"engine_events"`
	EngineEventNs float64 `json:"engine_event_ns"`
	EngineWallMs  float64 `json:"engine_wall_ms"`

	// Cgroup: one D-VPA ResizePodAndContainer (up to 4 ordered limit
	// writes) alternating between two limit pairs.
	CgroupResizeNsOp float64 `json:"cgroup_resize_ns_op"`

	// Learning stack: one DCG-BE A2C.Update over 32 unmasked transitions
	// on the 16-node testbed graph, one nn.MatMulInto at the actor's
	// middle layer for that graph ((16×256 ReLU output)·(256×128
	// weights)), and one masked A2C.Probs on the 123-node DualSpace(12)
	// graph with a fixed mask admitting about 64 % of the nodes, the
	// share the context filter admits on fleet-infer.
	RLUpdateNsOp float64 `json:"rl_update_ns_op,omitempty"`
	NNMatMulNsOp float64 `json:"nn_matmul_ns_op,omitempty"`
	RLProbsNsOp  float64 `json:"rl_probs_ns_op,omitempty"`

	// Shard: one cold sharded ScheduleRound per shard count over the
	// standard scale-suite fleet (experiments.ShardRound: shard_nodes/20
	// clusters x 20 workers, 8 LC requests per cluster, unrestricted geo
	// radius). Quick snapshots shrink the fleet; -compare only diffs rows
	// whose shard_nodes match.
	ShardNodes int        `json:"shard_nodes,omitempty"`
	ShardRows  []shardRow `json:"shard_rows,omitempty"`

	// Per-phase breakdowns from a profiled pass of each section (ns, bytes
	// and objects per Enter/Exit pair). The profiled pass is separate from
	// the ns/op timing loops above, so those stay profiler-overhead-free.
	SolverPhases []phaseRow `json:"solver_phases,omitempty"`
	EnginePhases []phaseRow `json:"engine_phases,omitempty"`
	CgroupPhases []phaseRow `json:"cgroup_phases,omitempty"`
}

// shardRow is one shard-count point of the scale-suite round.
type shardRow struct {
	Shards     int     `json:"shards"`
	WallMs     float64 `json:"wall_ms"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	Overflow   int64   `json:"overflow"`
}

// phaseRow is one phase of a profiled section, normalized per call.
type phaseRow struct {
	Phase    string  `json:"phase"`
	Calls    uint64  `json:"calls"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// phaseRows renders the non-empty phases of a profiler.
func phaseRows(p *perf.Profiler) []phaseRow {
	var out []phaseRow
	for _, s := range p.Snapshot() {
		if s.Calls == 0 {
			continue
		}
		out = append(out, phaseRow{
			Phase:    s.Phase,
			Calls:    s.Calls,
			NsOp:     float64(s.TotalNs) / float64(s.Calls),
			BytesOp:  float64(s.AllocBytes) / float64(s.Calls),
			AllocsOp: float64(s.AllocObjects) / float64(s.Calls),
		})
	}
	return out
}

// perfGraph builds the DSS-LC routing shape used by the solver timings.
func perfGraph(workers int, batch int64) (*flow.Graph, int, int) {
	g := flow.NewGraph()
	src, master, sink := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(src, master, batch, 0)
	for i := 0; i < workers; i++ {
		w := g.AddNode()
		// Deterministic capacity/cost spread standing in for Eq. 2/3.
		g.AddEdge(master, w, int64(1+i%7), int64(1000+137*(i%29)))
		g.AddEdge(w, sink, int64(1+i%7), 0)
	}
	return g, src, sink
}

// timeOp reports ns/op for fn, self-scaling the iteration count until
// at least `budget` of work was measured.
func timeOp(budget time.Duration, fn func()) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= budget || iters >= 1<<20 {
			return float64(elapsed.Nanoseconds()) / float64(iters)
		}
		iters *= 4
	}
}

// cgroupMicro builds a hierarchy with one burstable pod+container and
// returns a closure performing one alternating two-level resize.
func cgroupMicro() (func(), *cgroup.Hierarchy, error) {
	h := cgroup.NewHierarchy(res.V(64000, 262144, 0))
	pod, err := h.CreatePod(cgroup.Burstable, "bench-pod", cgroup.FromVector(res.V(4000, 4096, 0)))
	if err != nil {
		return nil, nil, err
	}
	cont, err := h.CreateContainer(pod, "bench-cont", cgroup.FromVector(res.V(2000, 2048, 0)))
	if err != nil {
		return nil, nil, err
	}
	big := [2]cgroup.Limits{cgroup.FromVector(res.V(4000, 4096, 0)), cgroup.FromVector(res.V(3000, 3072, 0))}
	small := [2]cgroup.Limits{cgroup.FromVector(res.V(2000, 2048, 0)), cgroup.FromVector(res.V(1000, 1024, 0))}
	i := 0
	return func() {
		var podL, contL cgroup.Limits
		if i%2 == 0 {
			podL, contL = small[0], small[1]
		} else {
			podL, contL = big[0], big[1]
		}
		i++
		if err := h.ResizePodAndContainer(pod, cont, podL, contL); err != nil {
			panic(err)
		}
	}, h, nil
}

// learningMicro times the DCG-BE learning stack at the paper testbed's
// shape: A2C.Update over 32 transitions with random states on the
// scheduler's own graph, and the actor's widest matmul; then masked
// inference at fleet shape, A2C.Probs on the DualSpace(12) graph.
func learningMicro(seed int64, budget time.Duration) (updateNs, matmulNs, probsNs float64) {
	e := engine.New(engine.Config{Sim: sim.New(), Topo: topo.PhysicalTestbed(),
		Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}})
	be := dcgbe.New(e, seed)
	g := be.Graph()
	agent := be.Agent.(*rl.A2C)
	rng := rand.New(rand.NewSource(seed))
	batch := make([]rl.Transition, 32)
	for i := range batch {
		x := nn.NewMat(g.N, dcgbe.FeatureDim)
		for j := range x.Data {
			x.Data[j] = rng.Float64()
		}
		batch[i] = rl.Transition{Graph: g, X: x, Action: rng.Intn(g.N), Reward: rng.Float64()}
	}
	agent.Update(batch) // sizes the layer buffers
	updateNs = timeOp(budget, func() { agent.Update(batch) })

	a, w := nn.NewMat(g.N, 256), nn.NewMat(256, 128)
	for i := range a.Data {
		a.Data[i] = math.Max(0, rng.NormFloat64())
	}
	nn.XavierInit(w, rng)
	out := nn.MatMulInto(nil, a, w)
	matmulNs = timeOp(budget, func() { out = nn.MatMulInto(out, a, w) })

	fleet := dcgbe.New(engine.New(engine.Config{Sim: sim.New(), Topo: topo.DualSpace(12, seed),
		Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{}}), seed)
	fg := fleet.Graph()
	x := nn.NewMat(fg.N, dcgbe.FeatureDim)
	for j := range x.Data {
		x.Data[j] = rng.Float64()
	}
	mask := make([]bool, fg.N)
	for j := range mask {
		mask[j] = rng.Float64() < 0.64
	}
	fa := fleet.Agent.(*rl.A2C)
	fa.Probs(fg, x, mask) // sizes the layer buffers
	probsNs = timeOp(budget, func() { fa.Probs(fg, x, mask) })
	return updateNs, matmulNs, probsNs
}

func writePerfSnapshot(dir string, seed int64, quick bool) (string, error) {
	const workers, batch = 200, 128
	budget := 50 * time.Millisecond
	profIters := 64
	engineDur, engineRun := 8*time.Second, 10*time.Second
	if quick {
		budget = 10 * time.Millisecond
		profIters = 8
		engineDur, engineRun = 2*time.Second, 3*time.Second
	}
	snap := perfSnapshot{
		Schema:        "tango.perf-snapshot/v1",
		Date:          time.Now().Format("2006-01-02"),
		Go:            runtime.Version(),
		OSArch:        runtime.GOOS + "/" + runtime.GOARCH,
		Seed:          seed,
		Quick:         quick,
		SolverWorkers: workers, SolverBatch: batch,
	}

	g, src, sink := perfGraph(workers, batch)
	g.SetWorkspace(flow.NewWorkspace())
	snap.SolverNsOp = timeOp(budget, func() {
		g.MinCostFlow(src, sink, batch)
		g.Reset()
	})
	snap.DinicNsOp = timeOp(budget, func() {
		g.MaxFlowDinic(src, sink)
		g.Reset()
	})
	wg, wsrc, wsink := perfGraph(workers, batch)
	wg.SetWorkspace(flow.NewWorkspace())
	wg.WarmStartAt(0, wsrc, wsink, batch) // capture the memo
	wg.Reset()
	snap.SolverWarmNsOp = timeOp(budget, func() {
		wg.WarmStartAt(0, wsrc, wsink, batch)
		wg.Reset()
	})

	// Profiled solver pass (separate graph so the timing loops above stay
	// free of profiler overhead).
	sp := perf.New()
	pg, psrc, psink := perfGraph(workers, batch)
	pg.SetProfiler(sp)
	pws := flow.NewWorkspace()
	pg.SetWorkspace(pws)
	for i := 0; i < profIters; i++ {
		pg.MinCostFlow(psrc, psink, batch)
		pg.Reset()
		pg.WarmStartAt(0, psrc, psink, batch)
		pg.Reset()
		pg.MaxFlowDinic(psrc, psink)
		pg.Reset()
	}
	snap.SolverPhases = phaseRows(sp)
	snap.SolverSolves, snap.SolverWarmHits = pws.Solves, pws.WarmHits

	// Engine run, profiled: phase breakdown rides along and its overhead
	// (two runtime/metrics reads per phase) is part of the measured rate,
	// identically in baseline and candidate snapshots.
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, engineDur, seed)
	reqs := trace.Generate(gen)
	opts := core.Tango(tp, seed)
	ep := perf.New()
	opts.Profiler = ep
	sys := core.New(opts)
	sys.Inject(reqs)
	start := time.Now()
	sys.Run(engineRun)
	wall := time.Since(start)
	snap.EngineEvents = sys.Sim.Fired()
	snap.EngineWallMs = float64(wall) / float64(time.Millisecond)
	if snap.EngineEvents > 0 {
		snap.EngineEventNs = float64(wall.Nanoseconds()) / float64(snap.EngineEvents)
	}
	snap.EnginePhases = phaseRows(ep)

	// Sharded scheduler sweep: each point schedules the identical cold
	// round once (a single wall-clock measurement, not a timeOp loop — a
	// second pass would ride the warm-start memo and stop being the cold
	// round the trajectory tracks).
	snap.ShardNodes = 10_000
	if quick {
		snap.ShardNodes = 2_000
	}
	for _, k := range []int{1, 2, 4, 8} {
		el, reqs, overflow := experiments.ShardRound(seed, snap.ShardNodes, k, func(fn func()) time.Duration {
			start := time.Now()
			fn()
			return time.Since(start)
		})
		snap.ShardRows = append(snap.ShardRows, shardRow{
			Shards:     k,
			WallMs:     float64(el) / float64(time.Millisecond),
			ReqsPerSec: float64(reqs) / el.Seconds(),
			Overflow:   overflow,
		})
	}

	// Cgroup D-VPA resize micro.
	resize, _, err := cgroupMicro()
	if err != nil {
		return "", err
	}
	snap.CgroupResizeNsOp = timeOp(budget, resize)
	cp := perf.New()
	presize, ph, err := cgroupMicro()
	if err != nil {
		return "", err
	}
	ph.SetProfiler(cp)
	for i := 0; i < profIters; i++ {
		presize()
	}
	snap.CgroupPhases = phaseRows(cp)

	snap.RLUpdateNsOp, snap.NNMatMulNsOp, snap.RLProbsNsOp = learningMicro(seed, budget)

	path := filepath.Join(dir, "BENCH_"+snap.Date+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fmt.Printf("perf: solver %.0f ns/op (warm %.0f, %d/%d warm hits), dinic %.0f ns/op, engine %.0f ns/event (%d events), cgroup resize %.0f ns/op\n",
		snap.SolverNsOp, snap.SolverWarmNsOp, snap.SolverWarmHits, snap.SolverSolves,
		snap.DinicNsOp, snap.EngineEventNs, snap.EngineEvents, snap.CgroupResizeNsOp)
	fmt.Printf("perf: rl update %.0f ns/op, nn matmul %.0f ns/op, rl probs %.0f ns/op\n",
		snap.RLUpdateNsOp, snap.NNMatMulNsOp, snap.RLProbsNsOp)
	fmt.Printf("perf: shard round (%d nodes):", snap.ShardNodes)
	for _, r := range snap.ShardRows {
		fmt.Printf(" k=%d %.0fms (%.0f req/s)", r.Shards, r.WallMs, r.ReqsPerSec)
	}
	fmt.Println()
	return path, nil
}
