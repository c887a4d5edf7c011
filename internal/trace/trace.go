// Package trace is the workload substrate. The paper drives its
// experiments with the 2019 Google cluster-data trace, classifying
// records into 10 categories of LC and BE services via the
// LatencySensitivity field and sizing QoS targets with pressure tests.
// That trace is proprietary-scale (8.08 GB) and not redistributable, so
// this package generates an equivalent synthetic workload: the same 10
// service types (5 latency-critical, 5 best-effort), per-type resource
// demands and QoS targets in the ranges the paper reports (LC targets
// around 300 ms), and arrival processes matching the three experimental
// patterns P1/P2/P3 of §7.1 plus a diurnal Google-like load shape for
// the large-scale runs. Generation is fully deterministic given a seed.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/res"
	"repro/internal/topo"
)

// Class distinguishes latency-critical from best-effort services.
type Class int

const (
	LC Class = iota
	BE
)

func (c Class) String() string {
	if c == LC {
		return "LC"
	}
	return "BE"
}

// TypeID indexes the service catalog.
type TypeID int

// ServiceType describes one of the 10 co-located service categories.
type ServiceType struct {
	ID    TypeID
	Name  string
	Class Class
	// QoSTarget is the tail-latency target γ_k for LC services (zero for BE).
	QoSTarget time.Duration
	// MinDemand is the minimum resource allocation r_i^{c,k}, r_i^{m,k}
	// needed to process one request; the re-assurance mechanism adjusts
	// the effective value at runtime.
	MinDemand res.Vector
	// Work is the CPU work of one request in millicore-milliseconds:
	// a request allocated A millicores completes in Work/A milliseconds.
	Work int64
	// TxKB is the request+response payload, charging link bandwidth.
	TxKB int64
}

// Catalog is the set of service types driving an experiment.
type Catalog struct {
	Types []ServiceType
}

// DefaultCatalog returns the 10-type catalog (5 LC + 5 BE) used by every
// experiment, mirroring §6.2. LC targets bracket the ~300 ms average the
// paper measures; BE jobs are heavier analytics/training-style work.
func DefaultCatalog() *Catalog {
	return &Catalog{Types: []ServiceType{
		{0, "lc-cloud-render", LC, 240 * time.Millisecond, res.V(500, 512, 5), 60000, 64},
		{1, "lc-audio", LC, 200 * time.Millisecond, res.V(250, 256, 2), 25000, 16},
		{2, "lc-video", LC, 320 * time.Millisecond, res.V(750, 1024, 10), 120000, 128},
		{3, "lc-ar-inference", LC, 350 * time.Millisecond, res.V(1000, 1024, 5), 175000, 48},
		{4, "lc-game-sync", LC, 400 * time.Millisecond, res.V(350, 512, 3), 70000, 24},
		{5, "be-analytics", BE, 0, res.V(500, 1024, 2), 400000, 256},
		{6, "be-training", BE, 0, res.V(1000, 2048, 4), 900000, 512},
		{7, "be-transcode", BE, 0, res.V(750, 1024, 6), 600000, 384},
		{8, "be-backup", BE, 0, res.V(250, 512, 8), 200000, 1024},
		{9, "be-index", BE, 0, res.V(500, 512, 2), 300000, 128},
	}}
}

// Type returns the service type with the given ID.
func (c *Catalog) Type(id TypeID) ServiceType { return *c.at(id) }

// MinDemand returns the minimum demand of the service type with the
// given ID, read in place rather than through a ServiceType copy: it
// sits on the schedulers' per-worker, per-request paths.
func (c *Catalog) MinDemand(id TypeID) res.Vector { return c.at(id).MinDemand }

func (c *Catalog) at(id TypeID) *ServiceType {
	if int(id) < 0 || int(id) >= len(c.Types) {
		panic(fmt.Sprintf("trace: type %d out of range", id))
	}
	return &c.Types[id]
}

// LCTypes returns the IDs of latency-critical types.
func (c *Catalog) LCTypes() []TypeID { return c.byClass(LC) }

// BETypes returns the IDs of best-effort types.
func (c *Catalog) BETypes() []TypeID { return c.byClass(BE) }

func (c *Catalog) byClass(cl Class) []TypeID {
	var out []TypeID
	for _, t := range c.Types {
		if t.Class == cl {
			out = append(out, t.ID)
		}
	}
	return out
}

// Request is one service request arriving at a cluster's master node.
type Request struct {
	ID      int64
	Type    TypeID
	Class   Class
	Arrival time.Duration
	Cluster topo.ClusterID
}

// Pattern selects the arrival process of §7.1 / §7.3.
type Pattern int

const (
	// P1 sends LC requests periodically and BE requests randomly.
	P1 Pattern = iota
	// P2 sends BE requests periodically and LC requests randomly.
	P2
	// P3 sends both randomly.
	P3
	// Diurnal modulates both with a 24-hour day/night load curve plus
	// noise — the Google-trace-like shape for the large-scale runs.
	Diurnal
	// Wavy superposes two sinusoids of different frequency (a Genny-style
	// "wave" shape); the chaos injector uses it for flash-crowd bursts.
	Wavy
	// Normal follows a Gaussian bell over the periodic cycle: load ramps
	// up to a mid-cycle peak and back down — one self-contained surge.
	Normal
)

func (p Pattern) String() string {
	switch p {
	case P1:
		return "P1"
	case P2:
		return "P2"
	case P3:
		return "P3"
	case Diurnal:
		return "diurnal"
	case Wavy:
		return "wavy"
	case Normal:
		return "normal"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// GenConfig parameterizes workload generation.
type GenConfig struct {
	Catalog  *Catalog
	Pattern  Pattern
	Duration time.Duration
	// LCRatePerSec / BERatePerSec are mean system-wide arrivals per second.
	LCRatePerSec float64
	BERatePerSec float64
	// Clusters receive arrivals with weights (uneven geographic load,
	// §1: "user requests' loads are uneven and fluctuating across
	// geographical locations"). If nil, weights are drawn log-normally.
	Clusters       []topo.ClusterID
	ClusterWeights []float64
	// PeriodicCycle is the cycle of the periodic component (P1/P2).
	PeriodicCycle time.Duration
	Seed          int64
	// FirstID offsets the generated request IDs (default 0). Mid-run
	// burst generators (chaos flash crowds) use a high base so burst IDs
	// never collide with the main trace's.
	FirstID int64
	// Start offsets every arrival time (default 0), placing a generated
	// burst at an absolute point of an already-running scenario.
	Start time.Duration
}

// DefaultGenConfig returns a config sized like the physical-testbed
// experiments: ~120 LC and ~40 BE requests per second over all clusters.
func DefaultGenConfig(clusters []topo.ClusterID, pattern Pattern, duration time.Duration, seed int64) GenConfig {
	return GenConfig{
		Catalog:       DefaultCatalog(),
		Pattern:       pattern,
		Duration:      duration,
		LCRatePerSec:  120,
		BERatePerSec:  40,
		Clusters:      clusters,
		PeriodicCycle: 8 * time.Second,
		Seed:          seed,
	}
}

// Generate produces the arrival sequence, sorted by arrival time.
func Generate(cfg GenConfig) []Request {
	if cfg.Catalog == nil {
		cfg.Catalog = DefaultCatalog()
	}
	if len(cfg.Clusters) == 0 {
		panic("trace: Generate needs at least one cluster")
	}
	if cfg.Duration <= 0 {
		panic("trace: Generate needs positive duration")
	}
	if cfg.PeriodicCycle <= 0 {
		cfg.PeriodicCycle = 8 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	weights := cfg.ClusterWeights
	if len(weights) != len(cfg.Clusters) {
		weights = make([]float64, len(cfg.Clusters))
		for i := range weights {
			weights[i] = math.Exp(rng.NormFloat64() * 0.8)
		}
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("trace: negative cluster weight")
		}
		total += w
		cum[i] = total
	}
	pickCluster := func() topo.ClusterID {
		x := rng.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		if i >= len(cum) {
			i = len(cum) - 1
		}
		return cfg.Clusters[i]
	}

	lcTypes, beTypes := cfg.Catalog.LCTypes(), cfg.Catalog.BETypes()
	var reqs []Request
	id := cfg.FirstID

	// The generator walks 100 ms slots; in each slot it draws Poisson
	// counts with a slot rate shaped by the pattern.
	const slot = 100 * time.Millisecond
	slots := int(cfg.Duration / slot)
	for si := 0; si < slots; si++ {
		at := cfg.Start + time.Duration(si)*slot
		frac := float64(si) * slot.Seconds()
		lcShape, beShape := shapes(cfg.Pattern, frac, cfg.PeriodicCycle.Seconds(), rng)
		lcMean := cfg.LCRatePerSec * slot.Seconds() * lcShape
		beMean := cfg.BERatePerSec * slot.Seconds() * beShape
		for i, n := 0, poisson(rng, lcMean); i < n; i++ {
			reqs = append(reqs, Request{
				ID: id, Type: lcTypes[rng.Intn(len(lcTypes))], Class: LC,
				Arrival: at + time.Duration(rng.Int63n(int64(slot))),
				Cluster: pickCluster(),
			})
			id++
		}
		for i, n := 0, poisson(rng, beMean); i < n; i++ {
			reqs = append(reqs, Request{
				ID: id, Type: beTypes[rng.Intn(len(beTypes))], Class: BE,
				Arrival: at + time.Duration(rng.Int63n(int64(slot))),
				Cluster: pickCluster(),
			})
			id++
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].ID < reqs[j].ID
	})
	return reqs
}

// shapes returns the (LC, BE) rate multipliers at time t seconds.
func shapes(p Pattern, t, cycle float64, rng *rand.Rand) (float64, float64) {
	// periodic: a raised sinusoid sweeping 0.2x..1.8x over the cycle.
	periodic := 1 + 0.8*math.Sin(2*math.Pi*t/cycle)
	random := 0.4 + 1.2*rng.Float64()
	switch p {
	case P1:
		return periodic, random
	case P2:
		return random, periodic
	case P3:
		r2 := 0.4 + 1.2*rng.Float64()
		return random, r2
	case Diurnal:
		// 24h curve compressed so experiments need not run a full day:
		// treat `cycle` as the day length. Low at night (0.3), peak in
		// the evening (1.6), plus noise.
		day := 2 * math.Pi * t / cycle
		base := 0.95 - 0.65*math.Cos(day) + 0.25*math.Sin(2*day)
		if base < 0.1 {
			base = 0.1
		}
		noise := 0.85 + 0.3*rng.Float64()
		return base * noise, base * (0.85 + 0.3*rng.Float64())
	case Wavy:
		// Two superposed waves (3:1 frequency ratio) with light noise;
		// clamped away from zero so a burst never goes fully silent.
		w := 1 + 0.6*math.Sin(2*math.Pi*t/cycle) + 0.35*math.Sin(2*math.Pi*3*t/cycle+1)
		if w < 0.05 {
			w = 0.05
		}
		return w * (0.9 + 0.2*rng.Float64()), w * (0.9 + 0.2*rng.Float64())
	case Normal:
		// Gaussian bell centered mid-cycle (σ = cycle/6): one surge that
		// ramps up and back down within the window.
		mid, sigma := cycle/2, cycle/6
		g := math.Exp(-(t - mid) * (t - mid) / (2 * sigma * sigma))
		base := 0.1 + 1.7*g
		return base * (0.9 + 0.2*rng.Float64()), base * (0.9 + 0.2*rng.Float64())
	default:
		panic(fmt.Sprintf("trace: unknown pattern %d", int(p)))
	}
}

// poisson draws a Poisson(mean) variate (Knuth for small means, normal
// approximation for large ones).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Stats summarizes a generated trace.
type Stats struct {
	Total, LCCount, BECount int
	PerType                 map[TypeID]int
	PerCluster              map[topo.ClusterID]int
}

// Summarize computes counts over a request slice.
func Summarize(reqs []Request) Stats {
	s := Stats{PerType: map[TypeID]int{}, PerCluster: map[topo.ClusterID]int{}}
	for _, r := range reqs {
		s.Total++
		if r.Class == LC {
			s.LCCount++
		} else {
			s.BECount++
		}
		s.PerType[r.Type]++
		s.PerCluster[r.Cluster]++
	}
	return s
}
