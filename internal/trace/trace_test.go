package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topo"
)

func TestDefaultCatalogShape(t *testing.T) {
	c := DefaultCatalog()
	if len(c.Types) != 10 {
		t.Fatalf("types = %d, want 10", len(c.Types))
	}
	if len(c.LCTypes()) != 5 || len(c.BETypes()) != 5 {
		t.Fatalf("LC/BE split = %d/%d", len(c.LCTypes()), len(c.BETypes()))
	}
	for _, st := range c.Types {
		if st.Class == LC {
			if st.QoSTarget <= 0 {
				t.Errorf("%s: LC type without QoS target", st.Name)
			}
			// Figure 1(b): most LC targets around 300ms.
			if st.QoSTarget < 100*time.Millisecond || st.QoSTarget > 600*time.Millisecond {
				t.Errorf("%s: QoS target %v outside the paper's envelope", st.Name, st.QoSTarget)
			}
		} else if st.QoSTarget != 0 {
			t.Errorf("%s: BE type with QoS target", st.Name)
		}
		if st.MinDemand.MilliCPU <= 0 || st.MinDemand.MemoryMiB <= 0 {
			t.Errorf("%s: demand not positive", st.Name)
		}
		if st.Work <= 0 {
			t.Errorf("%s: no work", st.Name)
		}
	}
	// BE jobs should be substantially heavier than LC requests on average.
	var lcW, beW int64
	for _, st := range c.Types {
		if st.Class == LC {
			lcW += st.Work
		} else {
			beW += st.Work
		}
	}
	if beW <= 2*lcW {
		t.Errorf("BE work %d not >> LC work %d", beW, lcW)
	}
}

func TestCatalogTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Type(99) did not panic")
		}
	}()
	DefaultCatalog().Type(99)
}

func TestCatalogMinDemand(t *testing.T) {
	c := DefaultCatalog()
	for _, st := range c.Types {
		if got := c.MinDemand(st.ID); got != c.Type(st.ID).MinDemand {
			t.Fatalf("MinDemand(%d) = %v, Type(%d).MinDemand = %v", st.ID, got, st.ID, st.MinDemand)
		}
	}
	for _, id := range []TypeID{-1, TypeID(len(c.Types))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MinDemand(%d) did not panic", id)
				}
			}()
			c.MinDemand(id)
		}()
	}
}

func TestClassAndPatternStrings(t *testing.T) {
	if LC.String() != "LC" || BE.String() != "BE" {
		t.Fatal("Class strings")
	}
	for p, want := range map[Pattern]string{P1: "P1", P2: "P2", P3: "P3", Diurnal: "diurnal"} {
		if p.String() != want {
			t.Fatalf("pattern %d = %q", int(p), p.String())
		}
	}
}

func clusters(n int) []topo.ClusterID {
	out := make([]topo.ClusterID, n)
	for i := range out {
		out[i] = topo.ClusterID(i)
	}
	return out
}

func TestGenerateSortedAndInRange(t *testing.T) {
	cfg := DefaultGenConfig(clusters(4), P3, 10*time.Second, 42)
	reqs := Generate(cfg)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	for i, r := range reqs {
		if r.Arrival < 0 || r.Arrival >= cfg.Duration {
			t.Fatalf("arrival %v out of range", r.Arrival)
		}
		if i > 0 && reqs[i-1].Arrival > r.Arrival {
			t.Fatal("not sorted by arrival")
		}
		if int(r.Cluster) < 0 || int(r.Cluster) >= 4 {
			t.Fatalf("cluster %d out of range", r.Cluster)
		}
		st := cfg.Catalog.Type(r.Type)
		if st.Class != r.Class {
			t.Fatal("request class does not match type class")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(clusters(3), P1, 5*time.Second, 7)
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	cfg.Seed = 8
	c := Generate(cfg)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateRateRoughlyMatches(t *testing.T) {
	cfg := DefaultGenConfig(clusters(2), P3, 60*time.Second, 11)
	reqs := Generate(cfg)
	s := Summarize(reqs)
	wantLC := cfg.LCRatePerSec * 60
	// P3's random multiplier averages 1.0, so expect within 30%.
	if math.Abs(float64(s.LCCount)-wantLC) > 0.3*wantLC {
		t.Fatalf("LC count %d far from expected %.0f", s.LCCount, wantLC)
	}
	wantBE := cfg.BERatePerSec * 60
	if math.Abs(float64(s.BECount)-wantBE) > 0.3*wantBE {
		t.Fatalf("BE count %d far from expected %.0f", s.BECount, wantBE)
	}
}

func TestP1IsPeriodicInLC(t *testing.T) {
	// With P1, the LC arrival counts per cycle-half should alternate
	// high/low; measure the peak-to-trough ratio over the cycle.
	cfg := DefaultGenConfig(clusters(1), P1, 64*time.Second, 3)
	cfg.PeriodicCycle = 8 * time.Second
	reqs := Generate(cfg)
	buckets := make([]float64, 8) // phase buckets of 1s across the 8s cycle
	for _, r := range reqs {
		if r.Class != LC {
			continue
		}
		phase := int(r.Arrival/time.Second) % 8
		buckets[phase]++
	}
	min, max := math.Inf(1), 0.0
	for _, b := range buckets {
		min = math.Min(min, b)
		max = math.Max(max, b)
	}
	if max < 2*min {
		t.Fatalf("P1 LC arrivals not periodic: buckets %v", buckets)
	}
}

func TestClusterWeightsSkewArrivals(t *testing.T) {
	cfg := DefaultGenConfig(clusters(2), P3, 30*time.Second, 5)
	cfg.ClusterWeights = []float64{9, 1}
	s := Summarize(Generate(cfg))
	c0, c1 := s.PerCluster[0], s.PerCluster[1]
	if c0 < 5*c1 {
		t.Fatalf("weights not respected: %d vs %d", c0, c1)
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no clusters":   func() { Generate(GenConfig{Duration: time.Second}) },
		"zero duration": func() { Generate(GenConfig{Clusters: clusters(1)}) },
		"negative weight": func() {
			Generate(GenConfig{Clusters: clusters(1), Duration: time.Second, ClusterWeights: []float64{-1}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0.5, 3, 12, 80} {
		n := 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(poisson(rng, mean))
			sum += x
			sumSq += x * x
		}
		m := sum / float64(n)
		v := sumSq/float64(n) - m*m
		if math.Abs(m-mean) > 0.1*mean+0.1 {
			t.Fatalf("mean(%g) = %g", mean, m)
		}
		if math.Abs(v-mean) > 0.2*mean+0.2 {
			t.Fatalf("var(%g) = %g", mean, v)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("poisson of non-positive mean should be 0")
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{ID: 0, Type: 0, Class: LC, Cluster: 0},
		{ID: 1, Type: 5, Class: BE, Cluster: 1},
		{ID: 2, Type: 5, Class: BE, Cluster: 1},
	}
	s := Summarize(reqs)
	if s.Total != 3 || s.LCCount != 1 || s.BECount != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.PerType[5] != 2 || s.PerCluster[1] != 2 {
		t.Fatalf("summary maps %+v", s)
	}
}

// Property: every generated trace is sorted, complete (IDs dense from 0
// after regeneration ordering) and class-consistent.
func TestQuickGenerateWellFormed(t *testing.T) {
	f := func(seed int64, pat uint8) bool {
		p := Pattern(int(pat) % 4)
		cfg := DefaultGenConfig(clusters(3), p, 5*time.Second, seed)
		cfg.LCRatePerSec, cfg.BERatePerSec = 40, 20
		reqs := Generate(cfg)
		seen := map[int64]bool{}
		for i, r := range reqs {
			if i > 0 && reqs[i-1].Arrival > r.Arrival {
				return false
			}
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
			if cfg.Catalog.Type(r.Type).Class != r.Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
