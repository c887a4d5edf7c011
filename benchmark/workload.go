package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hrm"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

// shapeSeed fixes a workload's shape: the generated dual-space fleet
// and the uneven per-cluster share of arrivals. A workload so keeps one
// input size and one geographic skew across seeds, and --seed varies
// only the arrival process and the schedulers' random streams.
const shapeSeed = 1

// workload is one whole-system simulation the benchmark runs.
type workload struct {
	Name string
	// Virtual is the number of generated clusters added to the physical
	// testbed by topo.DualSpace; 0 runs the physical testbed alone.
	Virtual int
	Pattern trace.Pattern
	// LCFrac and BEFrac size arrival rates as fractions of the fleet's
	// CPU; both 0 keep the trace generator's default rates.
	LCFrac, BEFrac float64
	Horizon        time.Duration // arrivals stop here
	Drain          time.Duration // extra virtual time before Run stops the periodics
	// LoadGreedyBE replaces DCG-BE by the load-greedy BE dispatcher,
	// removing the learning stack from the run.
	LoadGreedyBE bool
}

// workloads are the benchmark's workloads; README.md gives the reason
// for each shape.
var workloads = []workload{
	{
		// Paper testbed: DCG-BE's online A2C training dominates and the
		// DSS-LC solver barely runs.
		Name:    "testbed-train",
		Pattern: trace.P3,
		Horizon: 80 * time.Second, Drain: 5 * time.Second,
	},
	{
		// 123 workers: DCG-BE trains rarely but runs GNN and actor
		// inference over the whole graph.
		Name:    "fleet-infer",
		Virtual: 12, Pattern: trace.Diurnal, LCFrac: 0.4, BEFrac: 0.7,
		Horizon: 2 * time.Second, Drain: time.Second,
	},
	{
		// 1170 workers with load-greedy BE: no RL, DSS-LC batch solves
		// dominate.
		Name:    "fleet1k-lc",
		Virtual: 100, Pattern: trace.Diurnal, LCFrac: 0.5, BEFrac: 0.1,
		Horizon: 3 * time.Second, Drain: time.Second, LoadGreedyBE: true,
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ratesFor converts offered-load fractions of the fleet's CPU into
// arrival rates from the catalog's mean per-request work, the sizing
// the Figure 13 experiment uses.
func ratesFor(t *topo.Topology, cat *trace.Catalog, lcFrac, beFrac float64) (lcRate, beRate float64) {
	cores := float64(t.TotalCapacity().MilliCPU) / 1000
	var lcWork, beWork float64 // core-seconds per request
	var lcN, beN int
	for _, st := range cat.Types {
		w := float64(st.Work) / 1e6
		if st.Class == trace.LC {
			lcWork += w
			lcN++
		} else {
			beWork += w
			beN++
		}
	}
	if lcN > 0 && lcWork > 0 {
		lcRate = lcFrac * cores / (lcWork / float64(lcN))
	}
	if beN > 0 && beWork > 0 {
		beRate = beFrac * cores / (beWork / float64(beN))
	}
	return lcRate, beRate
}

// clusterWeights draws the per-cluster arrival weights the way the trace
// generator does when given none (log-normal, sigma 0.8), but from
// shapeSeed instead of the workload seed.
func clusterWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(shapeSeed))
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Exp(rng.NormFloat64() * 0.8)
	}
	return w
}

// mode selects how a System is instrumented.
type mode int

const (
	modePlain  mode = iota // timed, no instrumentation
	modeVerify             // core.Options.Verify on, untimed
	modeTraced             // layer wrappers installed
)

// setupTimes are the host times of the set-up stages.
type setupTimes struct {
	Topo, Trace, New, Inject time.Duration
}

func (s setupTimes) total() time.Duration { return s.Topo + s.Trace + s.New + s.Inject }

// instance is one System, set up and ready to Run.
type instance struct {
	w        workload
	sys      *core.System
	workers  int
	injected int
	setup    setupTimes
	digest   *outcomeDigest
	tr       *tracer          // traced mode only
	lc       *dsslc.Scheduler // traced mode only
	be       *dcgbe.Scheduler // traced mode only, nil with load-greedy BE
}

// newInstance builds the topology, generates the trace and assembles
// and loads the System, timing each stage.
func newInstance(w workload, seed int64, m mode) *instance {
	in := &instance{w: w, digest: newOutcomeDigest()}
	runtime.GC() // start every set-up from the same heap state

	t0 := time.Now()
	var tp *topo.Topology
	if w.Virtual == 0 {
		tp = topo.PhysicalTestbed()
	} else {
		tp = topo.DualSpace(w.Virtual, shapeSeed)
	}
	t1 := time.Now()

	clusters := make([]topo.ClusterID, len(tp.Clusters))
	for i, c := range tp.Clusters {
		clusters[i] = c.ID
		in.workers += len(c.Workers)
	}
	gen := trace.DefaultGenConfig(clusters, w.Pattern, w.Horizon, seed)
	gen.ClusterWeights = clusterWeights(len(clusters))
	if w.LCFrac > 0 || w.BEFrac > 0 {
		gen.LCRatePerSec, gen.BERatePerSec = ratesFor(tp, gen.Catalog, w.LCFrac, w.BEFrac)
	}
	reqs := trace.Generate(gen)
	t2 := time.Now()

	o := core.Tango(tp, seed)
	o.Catalog = gen.Catalog
	o.OnOutcome = in.digest.observe
	if w.LoadGreedyBE {
		o.MakeBE = experiments.MakeBESched("load-greedy")
	}
	switch m {
	case modeVerify:
		o.Verify = true
	case modeTraced:
		in.instrument(&o)
	}
	in.sys = core.New(o)
	t3 := time.Now()
	in.sys.Inject(reqs)
	in.injected = len(reqs)
	t4 := time.Now()

	in.setup = setupTimes{Topo: t1.Sub(t0), Trace: t2.Sub(t1), New: t3.Sub(t2), Inject: t4.Sub(t3)}
	return in
}

// instrument installs the layer wrappers of a traced run.
func (in *instance) instrument(o *core.Options) {
	in.tr = newTracer()
	t := in.tr
	o.Policy = tracedPolicy{inner: hrm.NewRegulations(), t: t}
	o.MakeLC = func(e *engine.Engine, seed int64) any {
		in.lc = dsslc.New(e, seed)
		return tracedLC{inner: in.lc, t: t}
	}
	if in.w.LoadGreedyBE {
		o.MakeBE = func(e *engine.Engine, seed int64) any {
			return tracedPick{inner: sched.LoadGreedy{}, t: t}
		}
		return
	}
	o.MakeBE = func(e *engine.Engine, seed int64) any {
		in.be = dcgbe.New(e, seed)
		in.be.Agent = tracedAgent{inner: in.be.Agent, t: t}
		return in.be
	}
}

// outcomeDigest hashes the request-outcome stream in the order the
// engine resolves requests.
type outcomeDigest struct {
	h         hash.Hash64
	buf       [34]byte
	outcomes  int
	completed int
}

func newOutcomeDigest() *outcomeDigest { return &outcomeDigest{h: fnv.New64a()} }

func (d *outcomeDigest) observe(o engine.Outcome) {
	b := d.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(o.Req.ID))
	binary.LittleEndian.PutUint64(b[8:], uint64(o.Req.Target))
	binary.LittleEndian.PutUint64(b[16:], uint64(o.Latency))
	binary.LittleEndian.PutUint64(b[24:], uint64(o.FinishedAt))
	b[32], b[33] = boolByte(o.Completed), boolByte(o.Satisfied)
	d.h.Write(b)
	d.outcomes++
	if o.Completed {
		d.completed++
	}
}

func (d *outcomeDigest) sum() uint64 { return d.h.Sum64() }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// simMetrics are the simulated (deterministic) end-to-end results.
type simMetrics struct {
	QoSRate  float64
	P50, P99 float64 // completed LC latency, simulated ms
	BEDone   float64
	UtilMean float64
}

// runResult is what one Run of an instance measured.
type runResult struct {
	Run        time.Duration
	Setup      setupTimes
	AllocBytes uint64
	LiveHeap   uint64
	Sim        simMetrics
	Digest     uint64
	Outcomes   int
	Completed  int
	Injected   int
	Workers    int
	Events     uint64
	Checks     int64  // verify mode: invariant checks made
	Violations int64  // verify mode: invariant violations found
	Spans      []span // traced mode only
	Layers     map[string]*layerStats
	Solves     uint64
	WarmHits   uint64
	Decisions  int64
	Updates    int64
	CacheHits  int64
}

// run executes the System over horizon + drain and collects the result.
func (in *instance) run() runResult {
	heap := []metrics.Sample{{Name: allocMetricName}, {Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	metrics.Read(heap)
	a0 := heap[0].Value.Uint64()
	if in.tr != nil {
		in.tr.origin = time.Now()
	}
	t0 := time.Now()
	in.sys.Run(in.w.Horizon + in.w.Drain)
	elapsed := time.Since(t0)
	metrics.Read(heap)
	a1 := heap[0].Value.Uint64()
	runtime.GC()
	metrics.Read(heap)
	live := heap[1].Value.Uint64()

	r := runResult{
		Run: elapsed, Setup: in.setup,
		AllocBytes: a1 - a0, LiveHeap: live,
		Digest: in.digest.sum(), Outcomes: in.digest.outcomes, Completed: in.digest.completed, Injected: in.injected, Workers: in.workers,
		Events: in.sys.Sim.Fired(),
	}
	m := in.sys.Metrics
	tails := m.TailPercentiles()
	r.Sim = simMetrics{
		QoSRate:  m.LC.Rate(),
		P50:      tails["p50"],
		P99:      tails["p99"],
		BEDone:   m.ThroughputSer.Sum(),
		UtilMean: m.UtilSeries.Mean(),
	}
	if v := in.sys.Verifier; v != nil {
		r.Checks, r.Violations = v.Checks, v.Total
	}
	if in.tr != nil {
		r.Spans = in.tr.spans
		r.Layers = aggregate(r.Spans)
	}
	if in.lc != nil {
		if ws := in.lc.Workspace(); ws != nil {
			r.Solves, r.WarmHits = ws.Solves, ws.WarmHits
		}
	}
	if in.be != nil {
		r.Decisions, r.Updates, r.CacheHits = in.be.Decisions, in.be.Updates, in.be.CacheHits
	}
	// The System stays reachable until the live heap has been read.
	runtime.KeepAlive(in.sys)
	return r
}
