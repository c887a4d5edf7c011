package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{5, 4, 3, 2, 1}, 0, 1},
		{[]float64{5, 4, 3, 2, 1}, 100, 5},
		{[]float64{5, 4, 3, 2, 1}, 25, 2},
		{[]float64{5, 4, 3, 2, 1}, 90, 4.6},
		{[]float64{10, 20}, 99, 19.9},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := percentile(in, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("percentile reordered its input: %v", in)
			}
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestAggregateSelfTime(t *testing.T) {
	// a [0,10] holds b [2,5] and c [6,8]; b holds d [3,4]; e [12,13]
	// is a second top-level span.
	spans := []span{
		{Name: "a", Parent: runSpan, Start: ms(0), End: ms(10), Alloc: 100},
		{Name: "b", Parent: 0, Start: ms(2), End: ms(5), Alloc: 40},
		{Name: "d", Parent: 1, Start: ms(3), End: ms(4), Alloc: 10},
		{Name: "c", Parent: 0, Start: ms(6), End: ms(8), Alloc: 20},
		{Name: "e", Parent: runSpan, Start: ms(12), End: ms(13)},
	}
	layers := aggregate(spans)
	want := map[string]struct {
		self  time.Duration
		alloc uint64
	}{
		"a": {ms(5), 40}, "b": {ms(2), 30}, "c": {ms(2), 20}, "d": {ms(1), 10}, "e": {ms(1), 0},
	}
	for name, w := range want {
		ls := layers[name]
		if ls == nil || ls.Calls != 1 || ls.SelfTime != w.self || ls.SelfAlloc != w.alloc {
			t.Errorf("%s: got %+v, want self %v alloc %d", name, ls, w.self, w.alloc)
		}
	}
	if got := layers["a"].DurMs; len(got) != 1 || got[0] != 10 {
		t.Errorf("a: inclusive durations %v, want [10]", got)
	}
	// Self times tile the time covered by top-level spans.
	if got := totalSelf(layers); got != ms(11) {
		t.Errorf("total self = %v, want 11ms", got)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", true)
	inner := tr.begin("inner", false)
	tr.end(inner, false)
	tr.end(outer, true)
	next := tr.begin("next", false)
	tr.end(next, false)
	want := []int{runSpan, outer, runSpan}
	for i, sp := range tr.spans {
		if sp.Parent != want[i] {
			t.Errorf("span %s: parent %d, want %d", sp.Name, sp.Parent, want[i])
		}
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

func TestGateCountsFailedRuns(t *testing.T) {
	b := &bench{ref: 42}
	if !b.check("ok", runResult{Digest: 42, Injected: 10, Outcomes: 10, Completed: 9}) {
		t.Fatal("matching run failed the gate")
	}
	if b.check("digest", runResult{Digest: 7, Injected: 10, Outcomes: 10, Completed: 10}) {
		t.Error("digest mismatch passed the gate")
	}
	if b.check("lost", runResult{Digest: 42, Injected: 10, Outcomes: 9, Completed: 9}) {
		t.Error("lost outcome passed the gate")
	}
	if b.check("violation", runResult{Digest: 42, Injected: 10, Outcomes: 10, Completed: 10, Violations: 1}) {
		t.Error("invariant violation passed the gate")
	}
	if b.attempted != 40 || b.failed != 31 || len(b.errs) != 3 {
		t.Errorf("attempted %d failed %d errs %v, want 40, 31 and 3 errors", b.attempted, b.failed, b.errs)
	}
}

// TestSmoke runs every workload on a short horizon: each request
// resolves exactly once, the verify pass finds no violation, the plain,
// verified and traced runs produce the same outcome digest, and a whole
// measurement prints exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Virtual == 0 {
				w.Horizon, w.Drain = 4*time.Second, time.Second
			} else {
				w.Horizon, w.Drain = 200*time.Millisecond, 300*time.Millisecond
			}
			plain := newInstance(w, 3, modePlain).run()
			if plain.Injected == 0 || plain.Outcomes != plain.Injected {
				t.Fatalf("%d outcomes for %d injected requests", plain.Outcomes, plain.Injected)
			}
			v := newInstance(w, 3, modeVerify).run()
			if v.Checks == 0 || v.Violations != 0 {
				t.Errorf("verify pass: %d checks, %d violations", v.Checks, v.Violations)
			}
			tr := newInstance(w, 3, modeTraced).run()
			if v.Digest != plain.Digest || tr.Digest != plain.Digest {
				t.Errorf("digests differ: plain %016x verify %016x traced %016x", plain.Digest, v.Digest, tr.Digest)
			}
			if len(tr.Layers) == 0 || totalSelf(tr.Layers) > tr.Run {
				t.Errorf("traced run: %d layers, self time %v over run %v", len(tr.Layers), totalSelf(tr.Layers), tr.Run)
			}
			for traced, want := range map[bool][]string{false: names(spec.EndToEnd), true: names(spec.PerLayer)} {
				b := &bench{w: w, seed: 3, out: io.Discard}
				res := b.measure(0, traced)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("measure(trace %v): correct %v, %d failed, errors %v", traced, res.Correct, res.Failed, b.errs)
				}
				if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("measure(trace %v) metrics %v, BENCHMARK.json lists %v", traced, got, want)
				}
			}
		})
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var got []string
	for _, w := range workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if want := names(readSpec(t).Workloads); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}
