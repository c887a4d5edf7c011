package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime/metrics"
	"time"
)

// Layer span names. Each names the public call a wrapper in layers.go
// times; the README maps each to the end-to-end metric it should move.
const (
	spanRLUpdate    = "rl.update"
	spanRLProbs     = "rl.probs"
	spanDSSLCBatch  = "dsslc.batch"
	spanHRMAdmit    = "hrm.admit"
	spanSchedPick   = "sched.pick"
	runSpan         = -1 // parent index of a span opened at the top level
	allocMetricName = "/gc/heap/allocs:bytes"
)

// span is one timed call into a layer. Start and End are offsets from
// the start of the traced run; Alloc is the heap bytes allocated while
// the span was open (only for spans opened with alloc accounting).
type span struct {
	Name   string
	Parent int // index of the enclosing span, runSpan for the run span
	Start  time.Duration
	End    time.Duration
	Alloc  uint64
}

// tracer records spans in memory for one traced run. It is
// single-threaded, like the simulation it observes: the open-span stack
// gives every span the innermost span still open as its parent.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		sample: []metrics.Sample{{Name: allocMetricName}},
	}
}

// allocBytes reads the process's cumulative heap allocation counter.
// metrics.Read does not stop the world, unlike runtime.ReadMemStats,
// so it is cheap enough to call around every traced call.
func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its index for end. withAlloc adds the
// heap allocation delta of the call to the span.
func (t *tracer) begin(name string, withAlloc bool) int {
	parent := runSpan
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	sp := span{Name: name, Parent: parent}
	if withAlloc {
		// Stored as the start reading; end replaces it by the delta.
		sp.Alloc = t.allocBytes()
	}
	i := len(t.spans)
	t.open = append(t.open, i)
	sp.Start = time.Since(t.origin)
	t.spans = append(t.spans, sp)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int, withAlloc bool) {
	sp := &t.spans[i]
	sp.End = time.Since(t.origin)
	if withAlloc {
		sp.Alloc = t.allocBytes() - sp.Alloc
	}
	t.open = t.open[:len(t.open)-1]
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Calls     int
	SelfTime  time.Duration // span time not covered by child spans
	SelfAlloc uint64        // allocated bytes not charged to child spans
	DurMs     []float64     // inclusive duration of every call, in ms
}

// aggregate computes every span's self time and self allocation (its
// own value minus its direct children's) and sums them per span name.
// Because each child is subtracted once from its direct parent, the
// self times of all spans add up to the time covered by top-level
// spans.
func aggregate(spans []span) map[string]*layerStats {
	childTime := make([]time.Duration, len(spans))
	childAlloc := make([]uint64, len(spans))
	for _, sp := range spans {
		if sp.Parent != runSpan {
			childTime[sp.Parent] += sp.End - sp.Start
			childAlloc[sp.Parent] += sp.Alloc
		}
	}
	out := map[string]*layerStats{}
	for i, sp := range spans {
		ls := out[sp.Name]
		if ls == nil {
			ls = &layerStats{}
			out[sp.Name] = ls
		}
		d := sp.End - sp.Start
		ls.Calls++
		ls.SelfTime += d - childTime[i]
		if sp.Alloc >= childAlloc[i] {
			ls.SelfAlloc += sp.Alloc - childAlloc[i]
		}
		ls.DurMs = append(ls.DurMs, float64(d)/float64(time.Millisecond))
	}
	return out
}

// totalSelf sums self time over every layer.
func totalSelf(layers map[string]*layerStats) time.Duration {
	var sum time.Duration
	for _, ls := range layers {
		sum += ls.SelfTime
	}
	return sum
}

// writeSpans writes spans as JSON lines, one span per line, with times
// in microseconds from the start of the run.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		rec := struct {
			Name       string  `json:"name"`
			Parent     int     `json:"parent"`
			StartUs    float64 `json:"start_us"`
			EndUs      float64 `json:"end_us"`
			AllocBytes uint64  `json:"alloc_bytes"`
		}{sp.Name, sp.Parent, us(sp.Start), us(sp.End), sp.Alloc}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
