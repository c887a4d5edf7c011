package check_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Dispatch-shape goldens: stream and report digests of the replayRun
// scenario (and of the chaos and sharded scenarios) for every kind of
// LC scheduler core drives — per-request Pick baselines, DSS-LC behind
// the sharded round at K=4, and DSS-LC under master stalls. They were
// captured before core's LC dispatch paths were merged into one round
// contract, and that merge must keep every one of them byte-identical.
// Never recapture them to make a change pass.
type digestPair struct{ stream, report string }

// lcSystems configures the replay scenario for each LC scheduler that
// is not the default DSS-LC: the three baseline systems of §7.3, Tango
// with the two per-request LC heuristics of Figure 11(a,b), and Tango
// with DSS-LC behind a wrapper that exposes only ScheduleBatchInto and
// Name (the shape of an outside timing wrapper, which hides the
// scheduler's tracer and verifier hooks from core).
var lcSystems = map[string]func(tp *topo.Topology, reqs []trace.Request, seed int64) core.Options{
	"k8s-native": func(tp *topo.Topology, reqs []trace.Request, seed int64) core.Options {
		return baselines.K8sNative(tp, reqs, seed)
	},
	"ceres": func(tp *topo.Topology, _ []trace.Request, seed int64) core.Options {
		return baselines.CERES(tp, seed)
	},
	"dsaco": func(tp *topo.Topology, _ []trace.Request, seed int64) core.Options {
		return baselines.DSACO(tp, seed)
	},
	"tango-scoring": func(tp *topo.Topology, _ []trace.Request, seed int64) core.Options {
		o := core.Tango(tp, seed)
		o.MakeLC = func(e *engine.Engine, _ int64) any { return sched.NewScoring(e.Topology()) }
		return o
	},
	"tango-load-greedy": func(tp *topo.Topology, _ []trace.Request, seed int64) core.Options {
		o := core.Tango(tp, seed)
		o.MakeLC = func(*engine.Engine, int64) any { return sched.LoadGreedy{} }
		return o
	},
	"tango-batch-into": func(tp *topo.Topology, _ []trace.Request, seed int64) core.Options {
		o := core.Tango(tp, seed)
		o.MakeLC = func(e *engine.Engine, seed int64) any { return batchIntoOnly{dsslc.New(e, seed)} }
		return o
	},
}

// batchIntoOnly hides every method of the wrapped DSS-LC scheduler but
// ScheduleBatchInto and Name.
type batchIntoOnly struct{ inner *dsslc.Scheduler }

func (b batchIntoOnly) ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out dsslc.Assignment) {
	b.inner.ScheduleBatchInto(c, reqs, out)
}

func (b batchIntoOnly) Name() string { return b.inner.Name() }

var lcGoldens = map[string]map[int64]digestPair{
	"k8s-native": {
		42: {
			"d31c6783b0aed6fa8c0ee5401617174e32b3747f53eb5cef24807b4ceed78961",
			"878651186b0fdbb6b60ead1a1c9c2b9c307c0ea6061cb1e089216f83f519de1f",
		},
		7: {
			"b8b1e5d3296742989909f93a99ba3dc62fe78b1d2d2690ede20fcd60deef4643",
			"d37bc7fe886992e4784b2de34d026190e0a41e5ad6e1904118894ced8a94d9d1",
		},
	},
	"ceres": {
		42: {
			"8fa21cc86bc010b2de7c8b0e1dad37174dce24a9488583922b4de11ad1839dc8",
			"08073dca93e34676070f929ed808d9fac172a1dfd9cfffeaa8e13465a33b77ae",
		},
		7: {
			"975a7d95fd473a400d018c822fa66a3fea7b63322a7b5f6340a869620ce52dd5",
			"013d29eff027a069813c97c3316e7e5c480622cb984cb750f2a500e2636597b8",
		},
	},
	"dsaco": {
		42: {
			"dcddecb6675d786fee858775ff637db8d155ba7708dbed855cc9849afdb91b4c",
			"1b261e9ca88421174a4313986cc8a645a4dfe641fe63907bbd3b1ddacdec1881",
		},
		7: {
			"f4f14bbf419bcdd479793a9071fab0599c3ae97e30064c02d7e14fce1a477ffc",
			"46b22385f0c951feaf83a6340206126d94c32e8621eaa8ce1251c76be6fd62d6",
		},
	},
	"tango-scoring": {
		42: {
			"0d34d8a0cd3a591a8f6a16e799ef3ce15e0619615b3a42dc6c2ada96e891533f",
			"d81adc906aa459ca89230a3d42a22d3fda6951e2ea9ff3494cc829ee411f46f6",
		},
		7: {
			"7d6e84eeadb13c936c6b78eedd0dc5359f49cbca56f6800f04b5976fd718a437",
			"01eb1c8e57cc06daee53f2556882406fef39cd1172a9c59692eec75dcdfcac73",
		},
	},
	"tango-batch-into": {
		42: {
			"d3f3c21ad59d4cf36a22f436e21ec71b2e65c03216098f955e4a8b559922e098",
			"cbdc3fd6e71492318db98d9d4d9cc316864ee2c771f34d1c9bf06f2cab5a8088",
		},
		7: {
			"25d6ab29d143772f8e3e07aee7cc18d8d692aa11b8d5bfe8663bcdfce6047bbf",
			"3647410f33ea622dceccfcfb1d3c1da7f825f7e8c4da3e6b18391cd825ef7723",
		},
	},
	"tango-load-greedy": {
		42: {
			"45b6439a5d21461e41e08741d835099f027f638779f92182224aab4fdf0ac8d2",
			"4c90029f5e0a35f7ff0216b5a6bef6eb647da85f848d15a1253e9e2a44bc6df3",
		},
		7: {
			"b488a5538cf516cad1beb9bc6abeb4c2e8d84c104e3bb482dbda7627c01d6bcd",
			"af1f2faa656507d5481dc354aa42152f440bfa3b77cc9526f0d4a4b72765852b",
		},
	},
}

// chaosGoldens pins chaosRun (default fault program, which always holds
// a master stall) and shardedGoldens the K=4 shardedReplayRun.
var chaosGoldens = map[int64]digestPair{
	42: {
		"171e9ca816bfbc96c2c38ac69bdbde857ae37162b645197e4ce9692ccd6a7563",
		"6f18e4f34cf4cdf3fa8fbd4606908112de7e251d05e779dccbeb282ea71938a7",
	},
	7: {
		"c812e3ed3bafd99a6910f2225f3cdc505bede72394a054b5ba2321df2b674538",
		"89e4df3289cb1186e6c1b291f211cdbf7efafbc7510b43958f4d6088fbac3658",
	},
}

var shardedGoldens = map[int64]digestPair{
	42: {
		"74609f85977dfdf2cf2a62d8ec0ca9181ce3a0988eecf27def347174c74821e5",
		"3246c012897311dcf538bb63cfa634d7e83c29dc48d64f570d70c345904559e8",
	},
	7: {
		"749a93e12f84b022abe0fde0ae5c9b6f1085660850c83e25d71ea1811a5f2207",
		"d1a7400c81411a0934da9ceb0f7c1a4f2680c648fb7dfb12e402e8b6d60b0cc5",
	},
}

func checkDigests(t *testing.T, what string, seed int64, want digestPair, stream, report string) {
	t.Helper()
	t.Logf("%s seed %d: stream=%s report=%s", what, seed, stream, report)
	if stream != want.stream {
		t.Errorf("%s seed %d: stream digest drifted:\n  golden %s\n  got    %s", what, seed, want.stream, stream)
	}
	if report != want.report {
		t.Errorf("%s seed %d: report digest drifted:\n  golden %s\n  got    %s", what, seed, want.report, report)
	}
}

func TestLCDispatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow under -short")
	}
	for name, configure := range lcSystems {
		for seed, want := range lcGoldens[name] {
			stream, report, violations := replayRunWith(t, seed, func(tp *topo.Topology, reqs []trace.Request) core.Options {
				return configure(tp, reqs, seed)
			})
			if violations != nil {
				t.Errorf("%s seed %d: verifier violations: %v", name, seed, violations)
			}
			checkDigests(t, name, seed, want, stream, report)
		}
	}
}

func TestChaosDispatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow under -short")
	}
	for seed, want := range chaosGoldens {
		r := chaosRun(t, seed, chaos.DefaultRandConfig())
		if r.err != nil {
			t.Errorf("seed %d: chaos oracle: %v", seed, r.err)
		}
		checkDigests(t, "chaos", seed, want, r.stream, r.report)
	}
}

func TestShardedDispatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs are slow under -short")
	}
	for seed, want := range shardedGoldens {
		stream, report, violations := shardedReplayRun(t, seed, 4)
		if violations != nil {
			t.Errorf("seed %d: verifier violations: %v", seed, violations)
		}
		checkDigests(t, "sharded K=4", seed, want, stream, report)
	}
}
