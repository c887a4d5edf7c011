package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestGeoRadiusReachesDefaultDSSLC: Options.GeoRadiusKm bounds the
// candidate clusters of the default DSS-LC dispatcher (footnote 4). At
// a 1 m radius no neighbor cluster qualifies, so even a hot cluster
// under heavy load must place every LC request on its own workers.
func TestGeoRadiusReachesDefaultDSSLC(t *testing.T) {
	tp := topo.PhysicalTestbed()
	var cs []topo.ClusterID
	for _, c := range tp.Clusters {
		cs = append(cs, c.ID)
	}
	gen := trace.DefaultGenConfig(cs, trace.P3, 6*time.Second, 42)
	gen.LCRatePerSec = 220
	gen.ClusterWeights = []float64{6, 1, 1, 1}
	reqs := trace.Generate(gen)

	o := Tango(tp, 42)
	o.GeoRadiusKm = 0.001
	var placed, remote int
	o.OnOutcome = func(out engine.Outcome) {
		r := out.Req
		if r.Class != trace.LC || !out.Completed {
			return
		}
		placed++
		if tp.Node(r.Target).Cluster != r.Cluster {
			remote++
		}
	}
	sys := New(o)
	sys.Inject(reqs)
	sys.Run(8 * time.Second)
	if placed == 0 {
		t.Fatal("no LC request completed")
	}
	if remote != 0 {
		t.Fatalf("%d of %d completed LC requests ran outside their origin cluster at a 1 m geo radius", remote, placed)
	}
}

// unsupported implements neither scheduler contract.
type unsupported struct{}

// TestNewRejectsUnsupportedSchedulers: an LC or BE factory returning a
// value core cannot drive fails in New, naming the type, instead of on
// the first dispatch round that has queued work.
func TestNewRejectsUnsupportedSchedulers(t *testing.T) {
	bad := func(*engine.Engine, int64) any { return unsupported{} }
	for _, c := range []struct {
		class string
		set   func(*Options)
	}{
		{"LC", func(o *Options) { o.MakeLC = bad }},
		{"BE", func(o *Options) { o.MakeBE = bad }},
	} {
		t.Run(c.class, func(t *testing.T) {
			o := Tango(smallTopo(), 1)
			c.set(&o)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.class) || !strings.Contains(msg, "core.unsupported") {
					t.Fatalf("New did not reject the %s scheduler by type; recovered %q", c.class, msg)
				}
			}()
			New(o)
		})
	}
}
