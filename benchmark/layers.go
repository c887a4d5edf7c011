package main

import (
	"repro/internal/dcgbe"
	"repro/internal/dsslc"
	"repro/internal/engine"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/res"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/topo"
)

// The wrappers below time calls into one layer's public functions from
// outside the program. Each forwards to the wrapped value unchanged, so
// a traced run makes exactly the decisions of an untraced one; the
// correctness gate checks that through the outcome digest.

// tracedAgent times the DCG-BE learning stack: policy inference
// (GraphSAGE + actor forward) and A2C training.
type tracedAgent struct {
	inner dcgbe.Agent
	t     *tracer
}

func (a tracedAgent) Probs(g *gnn.Graph, x *nn.Mat, mask []bool) []float64 {
	i := a.t.begin(spanRLProbs, true)
	p := a.inner.Probs(g, x, mask)
	a.t.end(i, true)
	return p
}

func (a tracedAgent) Update(batch []rl.Transition) rl.Stats {
	i := a.t.begin(spanRLUpdate, true)
	st := a.inner.Update(batch)
	a.t.end(i, true)
	return st
}

// tracedLC times DSS-LC's batched min-cost-flow dispatch. It implements
// core.BatchLCIntoScheduler, the interface the dispatcher prefers.
type tracedLC struct {
	inner *dsslc.Scheduler
	t     *tracer
}

func (l tracedLC) ScheduleBatchInto(c topo.ClusterID, reqs []*engine.Request, out dsslc.Assignment) {
	i := l.t.begin(spanDSSLCBatch, true)
	l.inner.ScheduleBatchInto(c, reqs, out)
	l.t.end(i, true)
}

func (l tracedLC) Name() string { return l.inner.Name() }

// tracedPolicy times HRM admission (engine.Policy.Admit). Calls are
// short and frequent, so only time is recorded.
type tracedPolicy struct {
	inner engine.Policy
	t     *tracer
}

func (p tracedPolicy) Admit(n *engine.Node, r *engine.Request) (res.Vector, bool) {
	i := p.t.begin(spanHRMAdmit, false)
	v, ok := p.inner.Admit(n, r)
	p.t.end(i, false)
	return v, ok
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

// tracedPick times a per-request scheduler's Pick (the load-greedy BE
// dispatcher of fleet1k-lc).
type tracedPick struct {
	inner sched.Scheduler
	t     *tracer
}

func (s tracedPick) Pick(r *engine.Request, cands []*engine.Node) (topo.NodeID, bool) {
	i := s.t.begin(spanSchedPick, false)
	id, ok := s.inner.Pick(r, cands)
	s.t.end(i, false)
	return id, ok
}

func (s tracedPick) Name() string { return s.inner.Name() }
