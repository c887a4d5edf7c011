// Package dcgbe implements DCG-BE, the Deep-reinforcement-learning
// Customized algorithm based on Graph neural networks for centralized BE
// request scheduling (§5.3, Algorithm 3).
//
// The scheduler runs on the central cluster's master. For every BE
// request it builds the global graph state (per-node features: available
// CPU/memory, total CPU/memory, current slack score, and the request's
// CPU/memory demand; per-edge: transmission latency and capacity, folded
// into the topology graph), encodes it with a GraphSAGE network (L = 2
// aggregations, p-neighbour sampling), and lets an A2C agent choose the
// target node. A policy context-filtering mask zeroes the probability of
// nodes whose free resources cannot host the request. The reward is
// r = r_short + η·r_long (η = 1): the short-term term penalizes queue
// pressure at the chosen node (e^-max(ΣCPU/cap, Σmem/cap)); the
// long-term term rewards completed BE work across the fleet since the
// previous training interval (1 − e^−Σ(...)).
//
// Swapping the encoder (GCN / GAT / Native) or the agent (discrete SAC)
// reproduces the ablations of Figure 11(c,d).
package dcgbe

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/res"
	"repro/internal/rl"
	"repro/internal/topo"
	"repro/internal/trace"
)

// FeatureDim is the per-node state size (§5.3.1).
const FeatureDim = 7

// EmbDim is the encoder output width.
const EmbDim = 32

// Agent abstracts A2C vs SAC for the pairing experiments.
type Agent interface {
	Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64
	Update(batch []rl.Transition) rl.Stats
}

// Scheduler is the centralized BE dispatcher policy.
type Scheduler struct {
	Engine *engine.Engine
	Agent  Agent
	// Eta weighs the long-term reward (η = 1 in the paper).
	Eta float64
	// TrainEvery is N̂, the number of actions between training intervals.
	TrainEvery int
	// SlackFn supplies the per-node slack score feature (wired to the
	// QoS re-assurer by core; defaults to zero).
	SlackFn func(topo.NodeID) float64
	// Explore: sample from the policy (true, training) or act greedily.
	Explore bool
	// OnPick, when set, observes every scheduling decision (telemetry).
	OnPick func(topo.NodeID)
	// AllowFn, when set, restricts the candidate set before the context
	// filter (e.g. the DSACO baseline limits LC offloading to geo-nearby
	// clusters). Nodes with AllowFn == false are masked out.
	AllowFn func(r *engine.Request, n *engine.Node) bool
	// DisableMasking turns off policy context filtering (ablation
	// bench): the agent may pick nodes that cannot host the request.
	DisableMasking bool
	// MaxTrainBatch bounds the transitions used per training interval;
	// larger intervals are stride-subsampled. This keeps the per-decision
	// training cost constant at scale (the paper trains on GPU; this
	// reproduction runs the networks on the CPU).
	MaxTrainBatch int

	name    string
	graph   *gnn.Graph
	nodes   []*engine.Node
	index   map[topo.NodeID]int
	batch   []rl.Transition // train's batch, reused
	pending []pendingReward
	// completedWork accumulates Σ (cpu/cap + mem/cap) of BE completions
	// since the last training interval (the r_long numerator).
	completedWork float64
	maxCPU        float64
	maxMem        float64
	// Updates counts trainings; Decisions counts scheduling actions;
	// CacheHits counts decisions served from the round cache.
	Updates   int64
	Decisions int64
	CacheHits int64

	// Round cache: within one dispatch round (same virtual instant) the
	// fleet state barely changes between consecutive picks of the same
	// request type, so the policy distribution is reused. Keyed by
	// (type, cluster) and cleared whenever the clock advances.
	cacheAt  time.Duration
	cacheMap map[cacheKey][]float64
	rng      *rand.Rand
}

type cacheKey struct {
	t trace.TypeID
	c topo.ClusterID
}

type pendingReward struct {
	tr     rl.Transition
	rShort float64
}

// Variant selects encoder/agent combinations.
type Variant struct {
	Encoder string // "sage" (default), "gcn", "gat", "native"
	Agent   string // "a2c" (default), "sac"
}

// New builds DCG-BE with the paper's configuration (GraphSAGE + A2C,
// p = 3 sampled neighbours, η = 1, 256/128/32 heads).
func New(e *engine.Engine, seed int64) *Scheduler {
	return NewVariant(e, Variant{}, seed)
}

// NewVariant builds a DCG-BE ablation variant.
func NewVariant(e *engine.Engine, v Variant, seed int64) *Scheduler {
	rng := rand.New(rand.NewSource(seed))
	var enc gnn.Encoder
	switch v.Encoder {
	case "", "sage":
		enc = gnn.NewSAGE(rng, 3, FeatureDim, EmbDim, EmbDim)
	case "gcn":
		enc = gnn.NewGCN(rng, FeatureDim, EmbDim, EmbDim)
	case "gat":
		enc = gnn.NewGAT(rng, FeatureDim, EmbDim, EmbDim)
	case "native":
		enc = gnn.NewNative(rng, FeatureDim, EmbDim, EmbDim)
	default:
		panic(fmt.Sprintf("dcgbe: unknown encoder %q", v.Encoder))
	}
	var ag Agent
	agName := v.Agent
	switch v.Agent {
	case "", "a2c":
		ag = rl.NewA2C(enc, EmbDim, rng)
		agName = "a2c"
	case "sac":
		ag = rl.NewSAC(enc, EmbDim, rng)
	default:
		panic(fmt.Sprintf("dcgbe: unknown agent %q", v.Agent))
	}
	name := "DCG-BE"
	if agName == "sac" {
		name = "GNN-SAC"
	} else if v.Encoder != "" && v.Encoder != "sage" {
		name = fmt.Sprintf("DCG-BE/%s", v.Encoder)
	}

	s := &Scheduler{
		Engine: e, Agent: ag, Eta: 1, TrainEvery: 32, MaxTrainBatch: 32,
		Explore:  true,
		name:     name,
		index:    map[topo.NodeID]int{},
		cacheMap: map[cacheKey][]float64{},
		rng:      rand.New(rand.NewSource(seed + 7)),
	}
	s.nodes = e.Nodes()
	// Scale-adaptive cadence: on large fleets, train over longer
	// intervals (subsampled) so per-decision training cost stays flat.
	if n := len(s.nodes); n > 32 {
		s.TrainEvery = 4 * n
	}
	for i, n := range s.nodes {
		s.index[n.ID] = i
		if c := float64(n.Capacity.MilliCPU); c > s.maxCPU {
			s.maxCPU = c
		}
		if m := float64(n.Capacity.MemoryMiB); m > s.maxMem {
			s.maxMem = m
		}
	}
	s.graph = buildGraph(e.Topology(), s.nodes, s.index)
	return s
}

// buildGraph connects workers within a cluster pairwise (LAN) and links
// clusters within the 500 km neighbourhood through their first workers
// (WAN), giving GraphSAGE a topology that mirrors the LAN/WAN structure.
func buildGraph(t *topo.Topology, nodes []*engine.Node, index map[topo.NodeID]int) *gnn.Graph {
	var edges [][2]int
	for _, c := range t.Clusters {
		ws := c.Workers
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				edges = append(edges, [2]int{index[ws[i]], index[ws[j]]})
			}
		}
	}
	for _, c := range t.Clusters {
		if len(c.Workers) == 0 {
			continue
		}
		for _, nc := range t.NeighborClusters(c.ID, 500) {
			if nc <= c.ID {
				continue // undirected: add once
			}
			other := t.Cluster(nc)
			if len(other.Workers) == 0 {
				continue
			}
			edges = append(edges, [2]int{index[c.Workers[0]], index[other.Workers[0]]})
		}
	}
	return gnn.NewGraph(len(nodes), edges)
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Graph returns the topology graph the encoder embeds.
func (s *Scheduler) Graph() *gnn.Graph { return s.graph }

// stateFeatures builds the N×7 state matrix for a request demand.
func (s *Scheduler) stateFeatures(cpuDem, memDem int64) *nn.Mat {
	x := nn.NewMat(len(s.nodes), FeatureDim)
	for i, n := range s.nodes {
		// "Available" resources net of queued and in-transit commitments
		// — the state the paper's Prometheus/state-storage pipeline
		// reports, rather than the instantaneous cgroup reading.
		free := n.Free().Sub(n.InTransit()).Sub(n.QueuedDemand()).Max(res.Vector{})
		row := x.Row(i)
		row[0] = float64(free.MilliCPU) / s.maxCPU
		row[1] = float64(free.MemoryMiB) / s.maxMem
		row[2] = float64(n.Capacity.MilliCPU) / s.maxCPU
		row[3] = float64(n.Capacity.MemoryMiB) / s.maxMem
		if s.SlackFn != nil {
			row[4] = s.SlackFn(n.ID)
		}
		row[5] = float64(cpuDem) / s.maxCPU
		row[6] = float64(memDem) / s.maxMem
	}
	return x
}

// Pick implements sched.Scheduler: it chooses the target node for one BE
// request, records the transition, and trains every TrainEvery actions.
func (s *Scheduler) Pick(r *engine.Request, _ []*engine.Node) (topo.NodeID, bool) {
	if len(s.nodes) == 0 {
		return 0, false
	}
	x, mask, ok := s.buildState(r)
	if !ok {
		return 0, false
	}
	probs := s.probsCached(now(s), cacheKey{t: r.Type, c: r.Cluster}, x, mask)
	return s.record(x, mask, s.choose(probs))
}

// buildState assembles the feature matrix and the context-filter mask.
// ok is false when no node may take the request at all.
func (s *Scheduler) buildState(r *engine.Request) (*nn.Mat, []bool, bool) {
	demand := r.SType.MinDemand
	x := s.stateFeatures(demand.MilliCPU, demand.MemoryMiB)
	if s.DisableMasking {
		return x, nil, true
	}
	// Policy context filtering: mask nodes that cannot host the request.
	mask := make([]bool, len(s.nodes))
	anyValid := false
	for i, n := range s.nodes {
		if n.Down() {
			continue
		}
		if s.AllowFn != nil && !s.AllowFn(r, n) {
			continue
		}
		if n.Free().Fits(n.EffectiveDemand(r.Type)) {
			mask[i] = true
			anyValid = true
		}
	}
	if !anyValid {
		if s.AllowFn != nil {
			// Keep the geographic restriction even when everything is
			// busy: allowed nodes only, ignoring the fit filter.
			anyAllowed := false
			for i, n := range s.nodes {
				if !n.Down() && s.AllowFn(r, n) {
					mask[i] = true
					anyAllowed = true
				}
			}
			if !anyAllowed {
				return nil, nil, false
			}
		} else {
			// Fall back to "any live node"; the request will queue there.
			anyUp := false
			for i, n := range s.nodes {
				if !n.Down() {
					mask[i] = true
					anyUp = true
				}
			}
			if !anyUp {
				return nil, nil, false
			}
		}
	}
	return x, mask, true
}

func now(s *Scheduler) time.Duration { return s.Engine.Sim().Now() }

// cached looks up the policy distribution computed earlier in the same
// dispatch round for this (type, cluster) key. AllowFn masks depend only
// on the request's cluster, so the key covers them.
func (s *Scheduler) cached(at time.Duration, k cacheKey) ([]float64, bool) {
	if s.cacheAt != at {
		s.cacheAt = at
		clear(s.cacheMap)
		return nil, false
	}
	p, ok := s.cacheMap[k]
	return p, ok
}

// probsCached returns the policy distribution, reusing the one computed
// for the same (type, cluster) at the same virtual instant. It keeps the
// slice Probs returns, which Agent implementations hand out fresh.
func (s *Scheduler) probsCached(at time.Duration, k cacheKey, x *nn.Mat, mask []bool) []float64 {
	if p, ok := s.cached(at, k); ok {
		s.CacheHits++
		return p
	}
	probs := s.Agent.Probs(s.graph, x, mask)
	s.cacheMap[k] = probs
	return probs
}

// choose samples from (or greedily maximizes over) the distribution.
func (s *Scheduler) choose(probs []float64) int {
	if !s.Explore {
		best, bi := -1.0, 0
		for i, p := range probs {
			if p > best {
				best, bi = p, i
			}
		}
		return bi
	}
	return rl.Sample(s.rng, probs)
}

// record books the transition, trains on schedule, and returns the pick.
func (s *Scheduler) record(x *nn.Mat, mask []bool, a int) (topo.NodeID, bool) {
	s.Decisions++
	chosen := s.nodes[a]
	s.pending = append(s.pending, pendingReward{
		tr:     rl.Transition{Graph: s.graph, X: x, Mask: mask, Action: a},
		rShort: s.shortReward(chosen),
	})
	if len(s.pending) >= s.TrainEvery {
		s.train()
	}
	if s.OnPick != nil {
		s.OnPick(chosen.ID)
	}
	return chosen.ID, true
}

// shortReward is e^-max(Σ cpu_q / cap, Σ mem_q / cap) over the requests
// waiting at node i (§5.3.1).
func (s *Scheduler) shortReward(n *engine.Node) float64 {
	var cpuSum, memSum float64
	// Waiting queue pressure; running requests count toward usage too,
	// which the exponent folds in through free-resource depletion.
	lcq, beq := n.QueueLen()
	queued := lcq + beq
	// Approximate queue demand with the node's average demand per queued
	// request (per-type queue contents are engine-internal).
	if queued > 0 {
		cat := s.Engine.Catalog()
		var c, m int64
		for _, t := range cat.Types {
			c += t.MinDemand.MilliCPU
			m += t.MinDemand.MemoryMiB
		}
		avgC := float64(c) / float64(len(cat.Types))
		avgM := float64(m) / float64(len(cat.Types))
		cpuSum = avgC * float64(queued)
		memSum = avgM * float64(queued)
	}
	cpuSum += float64(n.Used().MilliCPU)
	memSum += float64(n.Used().MemoryMiB)
	load := math.Max(cpuSum/float64(n.Capacity.MilliCPU), memSum/float64(n.Capacity.MemoryMiB))
	return math.Exp(-load)
}

// NotifyOutcome feeds BE completions into the long-term reward
// accumulator. Wire it into the engine's outcome fan-out.
func (s *Scheduler) NotifyOutcome(o engine.Outcome) {
	if o.Req.Class != trace.BE || !o.Completed || o.Req.Target < 0 {
		return
	}
	n := s.Engine.Node(o.Req.Target)
	d := o.Req.SType.MinDemand
	s.completedWork += float64(d.MilliCPU)/float64(n.Capacity.MilliCPU) +
		float64(d.MemoryMiB)/float64(n.Capacity.MemoryMiB)
}

// train finalizes rewards for the pending interval and updates the agent.
func (s *Scheduler) train() {
	if len(s.pending) == 0 {
		return
	}
	rLong := 1 - math.Exp(-s.completedWork)
	s.completedWork = 0
	batch := s.batch[:0]
	add := func(p pendingReward) {
		p.tr.Reward = p.rShort + s.Eta*rLong
		batch = append(batch, p.tr)
	}
	if n := len(s.pending); s.MaxTrainBatch > 0 && n > s.MaxTrainBatch {
		// Stride-subsample the interval to bound the training cost.
		stride := float64(n) / float64(s.MaxTrainBatch)
		for i := 0; i < s.MaxTrainBatch; i++ {
			add(s.pending[int(float64(i)*stride)])
		}
	} else {
		for _, p := range s.pending {
			add(p)
		}
	}
	// Drop the transitions' references so spent feature matrices can be
	// collected while the buffers wait for the next interval.
	clear(s.pending)
	s.pending = s.pending[:0]
	s.Agent.Update(batch)
	clear(batch)
	s.batch = batch
	s.Updates++
}

// Flush trains on any remaining pending transitions (end of experiment).
func (s *Scheduler) Flush() { s.train() }
