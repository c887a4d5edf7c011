package rl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// Trained-parameter goldens: the FNV-64a digest of the bits of every
// parameter (and of every Stats returned on the way) after a fixed
// sequence of SelectAction and Update calls on a fixed synthetic graph.
// They pin the learning stack bit for bit, so any rewrite of the nn
// kernels, the encoders or the agents' update paths must reproduce the
// exact floating-point results. Never recapture them to make a change
// pass: a drift means the arithmetic changed.
var trainedParamGoldens = map[string]string{
	"a2c/sage/42":   "544c3d2ad6eee513",
	"a2c/sage/7":    "a67b5c5b5af8168f",
	"sac/sage/42":   "094d4a09f475f713",
	"sac/sage/7":    "fd4af497554f28a1",
	"a2c/gcn/42":    "20fc9fa04dd2efef",
	"a2c/gcn/7":     "36ac6c74072f7ece",
	"a2c/gat/42":    "37d04f662ed4e8ef",
	"a2c/gat/7":     "8de16dd3851fe36c",
	"a2c/native/42": "09388d368cf22f25",
	"a2c/native/7":  "e3264d49452346b3",
}

const (
	goldenFeatures = 7
	goldenEmb      = 32
	goldenUpdates  = 5
	goldenBatch    = 8
)

// goldenGraph is a 16-node, 4-cluster topology shaped like the paper's
// testbed: workers are fully connected within a cluster, and the first
// worker of each cluster joins a WAN ring plus one chord. The gateway
// nodes have more than p = 3 neighbours, so GraphSAGE's sampling runs.
func goldenGraph() *gnn.Graph {
	return gnn.NewGraph(16, append(clusterEdges(4), [2]int{0, 8}))
}

// clusterEdges links clusters of four workers: fully connected within a
// cluster, and a ring over each cluster's first worker.
func clusterEdges(clusters int) [][2]int {
	var edges [][2]int
	for c := 0; c < clusters; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, [2]int{4*c + i, 4*c + j})
			}
		}
		edges = append(edges, [2]int{4 * c, 4 * ((c + 1) % clusters)})
	}
	return edges
}

type goldenAgent interface {
	SelectAction(g *gnn.Graph, x *nn.Mat, mask []bool) int
	Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64
	Update(batch []Transition) Stats
}

func goldenEncoder(name string, rng *rand.Rand) gnn.Encoder {
	switch name {
	case "sage":
		return gnn.NewSAGE(rng, 3, goldenFeatures, goldenEmb, goldenEmb)
	case "gcn":
		return gnn.NewGCN(rng, goldenFeatures, goldenEmb, goldenEmb)
	case "gat":
		return gnn.NewGAT(rng, goldenFeatures, goldenEmb, goldenEmb)
	case "native":
		return gnn.NewNative(rng, goldenFeatures, goldenEmb, goldenEmb)
	}
	panic("unknown encoder " + name)
}

// goldenState draws a feature matrix with some exact zeros (the sparse
// skip in the matmul kernels) and a context-filter mask with at least
// one valid node; every fourth state is unmasked.
func goldenState(rng *rand.Rand, n, step int) (*nn.Mat, []bool) {
	x := nn.NewMat(n, goldenFeatures)
	for i := range x.Data {
		if rng.Float64() < 0.2 {
			continue
		}
		x.Data[i] = rng.Float64()
	}
	if step%4 == 3 {
		return x, nil
	}
	mask := make([]bool, n)
	mask[rng.Intn(n)] = true
	for i := range mask {
		if rng.Float64() < 0.6 {
			mask[i] = true
		}
	}
	return x, mask
}

// trainedDigest runs the fixed training schedule for one agent/encoder
// pair and returns its digest.
func trainedDigest(agentName, encName string, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	enc := goldenEncoder(encName, rng)
	var ag goldenAgent
	var params func() []*nn.Param
	switch agentName {
	case "a2c":
		a := NewA2C(enc, goldenEmb, rng)
		ag, params = a, a.params
	case "sac":
		s := NewSAC(enc, goldenEmb, rng)
		ag = s
		params = func() []*nn.Param {
			ps := s.Enc.Params()
			for _, m := range []*nn.MLP{s.Actor, s.Q1, s.Q2, s.T1, s.T2} {
				ps = append(ps, m.Params()...)
			}
			return ps
		}
	}
	env := rand.New(rand.NewSource(seed + 1))
	g := goldenGraph()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for u := 0; u < goldenUpdates; u++ {
		batch := make([]Transition, goldenBatch)
		for i := range batch {
			x, mask := goldenState(env, g.N, i)
			a := ag.SelectAction(g, x, mask)
			batch[i] = Transition{Graph: g, X: x, Mask: mask, Action: a, Reward: env.Float64()}
		}
		st := ag.Update(batch)
		put(st.PolicyLoss)
		put(st.ValueLoss)
		put(st.Entropy)
	}
	for _, p := range params() {
		for _, v := range p.Val.Data {
			put(v)
		}
	}
	x, mask := goldenState(env, g.N, 0)
	for _, v := range ag.Probs(g, x, mask) {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestTrainedParamGoldens(t *testing.T) {
	for _, agentName := range []string{"a2c", "sac"} {
		for _, encName := range []string{"sage", "gcn", "gat", "native"} {
			if agentName == "sac" && encName != "sage" {
				continue
			}
			for _, seed := range []int64{42, 7} {
				key := fmt.Sprintf("%s/%s/%d", agentName, encName, seed)
				got := trainedDigest(agentName, encName, seed)
				if want := trainedParamGoldens[key]; got != want {
					t.Errorf("%s: trained-parameter digest drifted:\n  golden %s\n  got    %s", key, want, got)
				}
			}
		}
	}
}
