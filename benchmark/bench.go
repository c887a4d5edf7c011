package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// bench runs one workload at one seed and applies the correctness gate
// to every run it makes.
type bench struct {
	w    workload
	seed int64
	out  io.Writer

	ref       uint64 // outcome digest every run must reproduce
	attempted int    // requests injected over all runs
	failed    int    // requests of runs that failed the gate
	errs      []string
	lastSpans []span // spans of the last traced repeat
}

// check applies the correctness gate to one finished run: one outcome
// per injected request, no invariant violation, and the outcome digest
// of the reference run. Requests that did not complete count as failed,
// and a run that fails the gate counts all its requests as failed.
func (b *bench) check(label string, r runResult) bool {
	b.attempted += r.Injected
	var errs []string
	if r.Outcomes != r.Injected {
		errs = append(errs, fmt.Sprintf("%d outcomes for %d injected requests", r.Outcomes, r.Injected))
	}
	if r.Violations > 0 {
		errs = append(errs, fmt.Sprintf("%d invariant violations", r.Violations))
	}
	if r.Digest != b.ref {
		errs = append(errs, fmt.Sprintf("outcome digest %016x, want %016x", r.Digest, b.ref))
	}
	if len(errs) == 0 {
		b.failed += r.Injected - r.Completed
		return true
	}
	b.failed += r.Injected
	for _, e := range errs {
		b.errs = append(b.errs, label+": "+e)
	}
	return false
}

// measure makes the verify pass, then timed repeats until budget has
// passed (at least minRepeats), each followed by a traced repeat when
// withTrace is set, then set-ups without a run until setupRepeats
// set-ups have been timed.
func (b *bench) measure(budget time.Duration, withTrace bool) result {
	v := newInstance(b.w, b.seed, modeVerify).run()
	b.ref = v.Digest
	ok := b.check("verify pass", v)
	fmt.Fprintf(b.out, "verify pass: %d invariant checks, %d violations, outcome digest %016x\n",
		v.Checks, v.Violations, v.Digest)

	var plain, tracedRuns []runResult
	start := time.Now()
	for ok && (len(plain) < minRepeats || time.Since(start) < budget) {
		r := newInstance(b.w, b.seed, modePlain).run()
		ok = b.check(fmt.Sprintf("repeat %d", len(plain)+1), r)
		plain = append(plain, r)
		if ok && withTrace {
			t := newInstance(b.w, b.seed, modeTraced).run()
			ok = b.check(fmt.Sprintf("traced repeat %d", len(tracedRuns)+1), t)
			tracedRuns = append(tracedRuns, t)
			b.lastSpans = t.Spans
		}
	}
	res := result{Correct: ok, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, e := range b.errs {
		fmt.Fprintln(b.out, "FAIL", e)
	}
	if !ok {
		return res
	}
	var setups []setupTimes
	for _, r := range plain {
		setups = append(setups, r.Setup)
	}
	for len(setups) < setupRepeats {
		setups = append(setups, newInstance(b.w, b.seed, modePlain).setup)
	}

	r0 := plain[0]
	fmt.Fprintf(b.out, "workload %s seed %d: %d workers, %d requests, horizon %v + drain %v, %d events\n",
		b.w.Name, b.seed, r0.Workers, r0.Injected, b.w.Horizon, b.w.Drain, r0.Events)
	fmt.Fprintf(b.out, "%d timed repeats and %d set-ups, outcome digest %016x on every run, %d of %d requests failed\n",
		len(plain), len(setups), b.ref, res.Failed, res.Attempted)
	fmt.Fprint(b.out, "run_s by repeat:")
	for _, r := range plain {
		fmt.Fprintf(b.out, " %.3f", r.Run.Seconds())
	}
	fmt.Fprintln(b.out)
	if withTrace {
		res.Metrics = layerMetrics(plain, tracedRuns, setups)
	} else {
		res.Metrics = endToEnd(plain, setups)
	}
	printMetrics(b.out, res.Metrics)
	return res
}

// endToEnd reports the host metrics as medians over the timed repeats
// and the simulated metrics, which every repeat reproduces exactly.
func endToEnd(runs []runResult, setups []setupTimes) map[string]metric {
	s := runs[0].Sim
	return map[string]metric{
		"run_s":        {medianOf(runs, func(r runResult) float64 { return r.Run.Seconds() }), "s"},
		"setup_s":      {medianSetup(setups, setupTimes.total), "s"},
		"alloc_mb":     {medianOf(runs, func(r runResult) float64 { return mb(r.AllocBytes) }), "MB"},
		"live_heap_mb": {medianOf(runs, func(r runResult) float64 { return mb(r.LiveHeap) }), "MB"},
		"lc_qos_rate":  {s.QoSRate, "ratio"},
		"lc_p50_ms":    {s.P50, "ms"},
		"lc_p99_ms":    {s.P99, "ms"},
		"be_done":      {s.BEDone, "count"},
		"util_mean":    {s.UtilMean, "ratio"},
	}
}

// layerMetrics reports the per-layer breakdown from the traced repeats,
// with the untraced repeats as the base for overhead and set-up stages.
func layerMetrics(plain, traced []runResult, setups []setupTimes) map[string]metric {
	m := map[string]metric{}
	for _, name := range []string{spanRLUpdate, spanRLProbs, spanDSSLCBatch, spanHRMAdmit, spanSchedPick} {
		layer := func(r runResult) *layerStats {
			if ls := r.Layers[name]; ls != nil {
				return ls
			}
			return &layerStats{}
		}
		m[name+"_s"] = metric{medianOf(traced, func(r runResult) float64 { return layer(r).SelfTime.Seconds() }), "s"}
		m[name+"_calls"] = metric{float64(layer(traced[0]).Calls), "count"}
		switch name {
		case spanRLUpdate, spanRLProbs, spanDSSLCBatch:
			m[name+"_ms_p50"] = metric{medianOf(traced, func(r runResult) float64 { return percentile(layer(r).DurMs, 50) }), "ms"}
			m[name+"_alloc_mb"] = metric{medianOf(traced, func(r runResult) float64 { return mb(layer(r).SelfAlloc) }), "MB"}
		}
		switch name {
		case spanRLProbs, spanDSSLCBatch:
			m[name+"_ms_p99"] = metric{medianOf(traced, func(r runResult) float64 { return percentile(layer(r).DurMs, 99) }), "ms"}
		}
	}
	t0 := traced[0]
	m["dcgbe.decisions"] = metric{float64(t0.Decisions), "count"}
	m["dcgbe.updates"] = metric{float64(t0.Updates), "count"}
	m["dcgbe.cache_hit_ratio"] = metric{ratio(float64(t0.CacheHits), float64(t0.Decisions)), "ratio"}
	m["flow.solves"] = metric{float64(t0.Solves), "count"}
	m["flow.warm_hit_ratio"] = metric{ratio(float64(t0.WarmHits), float64(t0.Solves)), "ratio"}

	runS := medianOf(plain, func(r runResult) float64 { return r.Run.Seconds() })
	tracedS := medianOf(traced, func(r runResult) float64 { return r.Run.Seconds() })
	m["sim.events"] = metric{float64(t0.Events), "count"}
	m["sim.us_per_event"] = metric{runS / float64(t0.Events) * 1e6, "us"}
	m["core.residual_s"] = metric{medianOf(traced, func(r runResult) float64 {
		return (r.Run - totalSelf(r.Layers)).Seconds()
	}), "s"}
	m["coverage"] = metric{medianOf(traced, func(r runResult) float64 {
		return totalSelf(r.Layers).Seconds() / r.Run.Seconds()
	}), "ratio"}
	m["trace_overhead"] = metric{tracedS/runS - 1, "ratio"}
	m["trace.gen_s"] = metric{medianSetup(setups, func(s setupTimes) time.Duration { return s.Trace }), "s"}
	m["topo.build_s"] = metric{medianSetup(setups, func(s setupTimes) time.Duration { return s.Topo }), "s"}
	m["core.new_s"] = metric{medianSetup(setups, func(s setupTimes) time.Duration { return s.New }), "s"}
	m["core.inject_s"] = metric{medianSetup(setups, func(s setupTimes) time.Duration { return s.Inject }), "s"}
	return m
}

func medianOf(runs []runResult, f func(runResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

func medianSetup(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s).Seconds()
	}
	return median(xs)
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
