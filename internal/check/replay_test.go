package check_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The deterministic-replay contract: two runs of the same scenario
// configuration and seed must produce byte-identical trace streams
// (events, spans and decisions, in emission order) and run reports
// normalized over wall-clock fields. tango-sim -digest prints the same
// two digests; scripts/replay_smoke.sh asserts them end-to-end.

const replayHorizon = 6 * time.Second

func replayRun(t *testing.T, seed int64) (stream, report string, violations error) {
	t.Helper()
	return replayRunWith(t, seed, func(tp *topo.Topology, _ []trace.Request) core.Options {
		return core.Tango(tp, seed)
	})
}

// replayRunWith is replayRun over the system configure builds for the
// scenario's topology and request trace (tracing and verification are
// switched on here, whatever configure returns).
func replayRunWith(t *testing.T, seed int64, configure func(tp *topo.Topology, reqs []trace.Request) core.Options) (stream, report string, violations error) {
	t.Helper()
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.P3, replayHorizon, seed)
	gen.LCRatePerSec = 40
	gen.BERatePerSec = 15
	reqs := trace.Generate(gen)

	opts := configure(tp, reqs)
	ds := obs.NewDigestSink(nil)
	opts.TraceSink = ds
	opts.TraceTag = "replay"
	opts.Verify = true
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(replayHorizon + 2*time.Second)
	rep := sys.Report("tango", 0)
	if ds.Records() == 0 {
		t.Fatal("replay run emitted no trace records")
	}
	return ds.Sum(), obs.ReportDigest(rep), sys.Verifier.Err()
}

func TestReplayDigestsIdentical(t *testing.T) {
	s1, r1, v1 := replayRun(t, 42)
	s2, r2, v2 := replayRun(t, 42)
	if v1 != nil || v2 != nil {
		t.Fatalf("verifier violations during replay runs: %v / %v", v1, v2)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stream digests:\n  %s\n  %s", s1, s2)
	}
	if r1 != r2 {
		t.Fatalf("same seed, different report digests:\n  %s\n  %s", r1, r2)
	}
}

func TestReplayDigestSeedSensitive(t *testing.T) {
	s1, r1, _ := replayRun(t, 42)
	s2, r2, _ := replayRun(t, 43)
	if s1 == s2 {
		t.Fatal("different seeds produced identical stream digests")
	}
	if r1 == r2 {
		t.Fatal("different seeds produced identical report digests")
	}
}

// The in-situ verification layer must stay clean over a longer, denser
// run that exercises preemption, reassurance and overflow routing.
func TestVerifiedTangoRunClean(t *testing.T) {
	tp := topo.PhysicalTestbed()
	var clusters []topo.ClusterID
	for _, c := range tp.Clusters {
		clusters = append(clusters, c.ID)
	}
	gen := trace.DefaultGenConfig(clusters, trace.Diurnal, 10*time.Second, 7)
	gen.LCRatePerSec = 120
	gen.BERatePerSec = 40
	reqs := trace.Generate(gen)

	opts := core.Tango(tp, 7)
	opts.Verify = true
	sys := core.New(opts)
	sys.Inject(reqs)
	sys.Run(12 * time.Second)
	if err := sys.Verifier.Err(); err != nil {
		t.Fatalf("verifier: %v (checks=%d)", err, sys.Verifier.Checks)
	}
	if sys.Verifier.Checks < 10 {
		t.Fatalf("verifier barely ran: %d checks", sys.Verifier.Checks)
	}
}
