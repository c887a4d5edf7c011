// Package engine is the request-execution substrate: it models worker
// nodes processing LC and BE service requests under a resource policy.
//
// The performance model follows the paper's own virtual-cluster approach
// (§6.1): instead of running containers, each request carries a CPU work
// amount (millicore-milliseconds, calibrated per service type the way the
// paper calibrates with pressure tests) and completes after
// work / allocatedCPU milliseconds. Requests hold their allocation vector
// while running; admission, queuing, preemption (compressing the CPU of
// running BE requests or evicting them to reclaim memory, §4.1) and
// abandonment of hopeless LC requests are all engine mechanics that the
// pluggable Policy drives.
package engine

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Request is one live request.
type Request struct {
	ID      int64
	Type    trace.TypeID
	Class   trace.Class
	SType   trace.ServiceType
	Arrival time.Duration // arrival at the cluster master (user-perceived start)
	Cluster topo.ClusterID
	Target  topo.NodeID // worker the request was dispatched to
	// Restarts counts BE evict-and-restart cycles (§4.1).
	Restarts int

	// SpanID is the root "request" span, lazily reserved at first
	// dispatch when tracing is on (0 = no span). DecisionID links the
	// scheduling decision that routed the request (-1 = none, e.g.
	// baselines without audit or direct engine drives).
	SpanID     uint64
	DecisionID int64

	enqueuedAt time.Duration
	abandonEv  *sim.Event
	// mark is the start of the current lifecycle stage; each child span
	// covers [mark, now] and advances mark, so the children exactly tile
	// [Arrival, completion].
	mark time.Duration
	// carryWork is the checkpointed remaining work of a live-migrated
	// request (millicore-ms); the next start resumes from it instead of
	// the full SType.Work. Zero means no checkpoint (fresh start).
	carryWork float64
}

// Outcome reports the fate of a request.
type Outcome struct {
	Req        *Request
	Completed  bool // false = abandoned (LC only)
	Latency    time.Duration
	Satisfied  bool // LC: Latency <= QoS target; BE: same as Completed
	FinishedAt time.Duration
}

// running tracks an in-flight request on a node.
type running struct {
	req        *Request
	alloc      res.Vector
	workLeft   float64 // millicore-milliseconds
	lastUpdate time.Duration
	done       *sim.Event
	seq        int64 // admission order, newest-first eviction
}

// Node is one worker's runtime state.
type Node struct {
	ID       topo.NodeID
	Cluster  topo.ClusterID
	Capacity res.Vector

	// AllocOverride lets the QoS re-assurer adjust the effective minimum
	// allocation per service type on this node (§4.3). Nil entries fall
	// back to the catalog MinDemand.
	AllocOverride map[trace.TypeID]res.Vector

	used      res.Vector
	usedLC    res.Vector
	inTransit res.Vector // demand of requests dispatched but not yet arrived
	running   map[int64]*running
	queueLC   []*Request
	queueBE   []*Request
	seq       int64
	eng       *Engine
	down      bool
	ScaleOps  int64 // D-VPA style allocation changes performed here
}

// Policy decides admission: given a request at the head of a queue (or
// newly arrived), return the allocation to run it with and true, or false
// to leave it queued. Policies may invoke the node's preemption mechanics
// (CompressBE / EvictBE) before returning.
type Policy interface {
	Admit(n *Node, r *Request) (res.Vector, bool)
	Name() string
}

// Config assembles an Engine.
type Config struct {
	Sim     *sim.Simulator
	Topo    *topo.Topology
	Catalog *trace.Catalog
	Policy  Policy
	// OnOutcome receives every completion/abandonment.
	OnOutcome func(Outcome)
	// ScaleLatency is the per-admission vertical-scaling latency (23 ms
	// for D-VPA; zero models a static allocation that needs no resize).
	ScaleLatency time.Duration
	// LCAbandonFactor: an LC request that has not started processing
	// within factor × QoSTarget of its arrival is abandoned. Zero
	// disables abandonment.
	LCAbandonFactor float64
	// OnDisplaced receives requests displaced by a node failure (running
	// and queued work of the failed node, and requests dispatched to a
	// node that is down on arrival). When nil, displaced LC requests are
	// emitted as abandoned and BE requests as failed outcomes.
	OnDisplaced func(reqs []*Request)
	// Tracer receives one structured event per engine decision point
	// (dispatch, queue, start, finish, abandon, compress, evict, boost,
	// fail, recover). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Prof, when set, charges every Policy.Admit call (arrival-time and
	// queue-drain) to the engine/admission phase. Nil costs nothing.
	Prof *perf.Profiler
}

// Engine owns all worker-node runtimes.
type Engine struct {
	cfg   Config
	nodes map[topo.NodeID]*Node
	trc   *obs.Tracer
	// counters
	Completed int64
	Abandoned int64
	// Migrations counts live migrations started (tango_migrations_total).
	Migrations int64
}

// New builds the engine with one runtime per worker node.
func New(cfg Config) *Engine {
	if cfg.Sim == nil || cfg.Topo == nil || cfg.Catalog == nil || cfg.Policy == nil {
		panic("engine: Config requires Sim, Topo, Catalog and Policy")
	}
	e := &Engine{cfg: cfg, nodes: map[topo.NodeID]*Node{}, trc: cfg.Tracer}
	for _, n := range cfg.Topo.Nodes {
		if n.Role != topo.Worker {
			continue
		}
		e.nodes[n.ID] = &Node{
			ID:            n.ID,
			Cluster:       n.Cluster,
			Capacity:      n.Capacity,
			AllocOverride: map[trace.TypeID]res.Vector{},
			running:       map[int64]*running{},
			eng:           e,
		}
	}
	return e
}

// Node returns the runtime for a worker node.
func (e *Engine) Node(id topo.NodeID) *Node {
	n, ok := e.nodes[id]
	if !ok {
		panic(fmt.Sprintf("engine: node %d is not a worker", id))
	}
	return n
}

// Nodes iterates worker runtimes in topology order.
func (e *Engine) Nodes() []*Node {
	var out []*Node
	for _, tn := range e.cfg.Topo.Nodes {
		if tn.Role == topo.Worker {
			out = append(out, e.nodes[tn.ID])
		}
	}
	return out
}

// Sim exposes the simulator (for policies needing the clock).
func (e *Engine) Sim() *sim.Simulator { return e.cfg.Sim }

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.trc }

// Catalog returns the service catalog the engine was built with.
func (e *Engine) Catalog() *trace.Catalog { return e.cfg.Catalog }

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.cfg.Topo }

// Policy returns the active resource policy.
func (e *Engine) Policy() Policy { return e.cfg.Policy }

// NewRequest materializes a trace request into a live engine request.
func (e *Engine) NewRequest(tr trace.Request) *Request {
	return &Request{
		ID:         tr.ID,
		Type:       tr.Type,
		Class:      tr.Class,
		SType:      e.cfg.Catalog.Type(tr.Type),
		Arrival:    tr.Arrival,
		Cluster:    tr.Cluster,
		Target:     -1,
		DecisionID: -1,
		mark:       tr.Arrival,
	}
}

// TransitDelay models dispatching a request from the master of cluster
// `from` to worker `to`: half an RTT plus payload serialization.
func (e *Engine) TransitDelay(from topo.ClusterID, to topo.NodeID, txKB int64) time.Duration {
	t := e.cfg.Topo
	master := t.Cluster(from).Master
	rtt := t.RTT(master, to)
	bw := t.LinkBandwidth(master, to)
	ser := time.Duration(float64(txKB*8) / float64(bw) * float64(time.Millisecond))
	return rtt/2 + ser
}

// Dispatch routes a request to a worker node; it arrives after the
// transit delay and is then offered to the policy. The demand is booked
// as in-transit so load-aware schedulers can see outstanding dispatches
// (the way production load balancers count in-flight requests).
func (e *Engine) Dispatch(r *Request, target topo.NodeID) {
	n := e.Node(target)
	r.Target = target
	d := n.EffectiveDemand(r.Type)
	n.inTransit = n.inTransit.Add(d)
	delay := e.TransitDelay(r.Cluster, target, r.SType.TxKB)
	if tr := e.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvDispatch).Req(r.ID).Clu(int(r.Cluster)).Node(int(target)).
			Service(int(r.Type)).Cls(r.Class.String()).Val(float64(delay) / float64(time.Millisecond)))
		now := e.cfg.Sim.Now()
		if r.SpanID == 0 {
			// Root-span reservation is the head-based sampling point:
			// RequestSpanID returns 0 for sampled-out requests, which every
			// downstream span site treats as "no tracing for this request".
			r.SpanID = tr.RequestSpanID(r.ID)
		}
		if r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanSched, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Node(int(target)).Service(int(r.Type)).
				Cls(r.Class.String()).Dec(r.DecisionID))
			r.mark = now
		}
	}
	e.cfg.Sim.Schedule(delay, func() {
		n.inTransit = n.inTransit.Sub(d)
		if tr := e.trc; tr.Enabled() && r.SpanID != 0 {
			now := e.cfg.Sim.Now()
			tr.EmitSpan(obs.Sp(obs.SpanTransit, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Node(int(target)).Service(int(r.Type)).Cls(r.Class.String()))
			r.mark = now
		}
		n.arrive(r)
	})
}

// DispatchLocal places the request on the node without network delay
// (used when a worker re-queues its own work).
func (e *Engine) DispatchLocal(r *Request, target topo.NodeID) {
	n := e.Node(target)
	r.Target = target
	if tr := e.trc; tr.Enabled() {
		now := e.cfg.Sim.Now()
		if r.SpanID == 0 {
			r.SpanID = tr.RequestSpanID(r.ID)
		}
		if r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanSched, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Node(int(target)).Service(int(r.Type)).
				Cls(r.Class.String()).Dec(r.DecisionID))
			r.mark = now
		}
	}
	n.arrive(r)
}

// admit runs the policy's admission decision under the engine/admission
// perf phase.
func (n *Node) admit(r *Request) (res.Vector, bool) {
	if p := n.eng.cfg.Prof; p != nil {
		p.Enter(perf.PhaseEngineAdmission)
		alloc, ok := n.eng.cfg.Policy.Admit(n, r)
		p.Exit(perf.PhaseEngineAdmission)
		return alloc, ok
	}
	return n.eng.cfg.Policy.Admit(n, r)
}

func (n *Node) arrive(r *Request) {
	if n.down {
		n.eng.displace([]*Request{r})
		return
	}
	now := n.eng.cfg.Sim.Now()
	r.enqueuedAt = now
	if alloc, ok := n.admit(r); ok {
		n.start(r, alloc)
		return
	}
	if r.Class == trace.LC {
		n.queueLC = append(n.queueLC, r)
		n.armAbandon(r)
	} else {
		n.queueBE = append(n.queueBE, r)
	}
	if tr := n.eng.trc; tr.Enabled() {
		lcq, beq := len(n.queueLC), len(n.queueBE)
		tr.Emit(obs.Ev(obs.EvQueue).Req(r.ID).Node(int(n.ID)).Service(int(r.Type)).
			Cls(r.Class.String()).Au(int64(lcq + beq)))
	}
}

func (n *Node) armAbandon(r *Request) {
	f := n.eng.cfg.LCAbandonFactor
	if f <= 0 || r.SType.QoSTarget <= 0 {
		return
	}
	deadline := r.Arrival + time.Duration(f*float64(r.SType.QoSTarget))
	now := n.eng.cfg.Sim.Now()
	if deadline <= now {
		n.abandon(r)
		return
	}
	r.abandonEv = n.eng.cfg.Sim.Schedule(deadline-now, func() { n.abandon(r) })
}

func (n *Node) abandon(r *Request) {
	for i, q := range n.queueLC {
		if q == r {
			n.queueLC = append(n.queueLC[:i], n.queueLC[i+1:]...)
			break
		}
	}
	n.eng.Abandoned++
	if tr := n.eng.trc; tr.Enabled() {
		now := n.eng.cfg.Sim.Now()
		age := now - r.Arrival
		tr.Emit(obs.Ev(obs.EvAbandon).Req(r.ID).Node(int(n.ID)).Service(int(r.Type)).
			Cls(r.Class.String()).Val(float64(age) / float64(time.Millisecond)))
		if r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanQueue, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
			tr.EmitSpan(obs.Sp(obs.SpanRequest, r.Arrival, now).WithID(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()).
				Dec(r.DecisionID).Note("abandoned"))
			r.mark = now
		}
	}
	n.eng.emit(Outcome{
		Req: r, Completed: false, Satisfied: false,
		Latency:    n.eng.cfg.Sim.Now() - r.Arrival,
		FinishedAt: n.eng.cfg.Sim.Now(),
	})
}

// start commits resources and schedules completion.
func (n *Node) start(r *Request, alloc res.Vector) {
	if alloc.MilliCPU <= 0 {
		panic(fmt.Sprintf("engine: request %d started with no CPU (%v)", r.ID, alloc))
	}
	if !n.Free().Fits(alloc) {
		panic(fmt.Sprintf("engine: node %d over-committed: free %v, alloc %v", n.ID, n.Free(), alloc))
	}
	if r.abandonEv != nil {
		r.abandonEv.Cancel()
		r.abandonEv = nil
	}
	n.used = n.used.Add(alloc)
	if r.Class == trace.LC {
		n.usedLC = n.usedLC.Add(alloc)
	}
	n.seq++
	n.ScaleOps++
	now := n.eng.cfg.Sim.Now()
	work := float64(r.SType.Work)
	if r.carryWork > 0 {
		// A live-migrated request resumes from its checkpoint; contrast
		// with EvictBE's restart-from-scratch semantics.
		work = r.carryWork
		r.carryWork = 0
	}
	ru := &running{
		req:        r,
		alloc:      alloc,
		workLeft:   work,
		lastUpdate: now,
		seq:        n.seq,
	}
	n.running[r.ID] = ru
	if tr := n.eng.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvStart).Req(r.ID).Node(int(n.ID)).Service(int(r.Type)).
			Cls(r.Class.String()).Val(float64(alloc.MilliCPU)).
			Au(int64((now - r.enqueuedAt) / time.Microsecond)))
		if r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanQueue, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
			r.mark = now
		}
	}
	n.scheduleDone(ru, n.eng.cfg.ScaleLatency)
}

// scheduleDone (re)schedules the completion event from workLeft.
func (n *Node) scheduleDone(ru *running, extra time.Duration) {
	if ru.done != nil {
		ru.done.Cancel()
	}
	ms := ru.workLeft / float64(ru.alloc.MilliCPU)
	d := extra + time.Duration(ms*float64(time.Millisecond))
	ru.done = n.eng.cfg.Sim.Schedule(d, func() { n.finish(ru) })
}

// settle updates workLeft for elapsed time at the current speed.
func (n *Node) settle(ru *running) {
	now := n.eng.cfg.Sim.Now()
	elapsed := now - ru.lastUpdate
	if elapsed > 0 {
		doneWork := float64(elapsed) / float64(time.Millisecond) * float64(ru.alloc.MilliCPU)
		ru.workLeft -= doneWork
		if ru.workLeft < 0 {
			ru.workLeft = 0
		}
	}
	ru.lastUpdate = now
}

func (n *Node) finish(ru *running) {
	r := ru.req
	delete(n.running, r.ID)
	n.used = n.used.Sub(ru.alloc)
	if r.Class == trace.LC {
		n.usedLC = n.usedLC.Sub(ru.alloc)
	}
	now := n.eng.cfg.Sim.Now()
	// Response returns to the user through the master.
	ret := n.eng.TransitDelay(r.Cluster, n.ID, r.SType.TxKB)
	latency := now + ret - r.Arrival
	satisfied := true
	if r.Class == trace.LC && r.SType.QoSTarget > 0 {
		satisfied = latency <= r.SType.QoSTarget
	}
	n.eng.Completed++
	if tr := n.eng.trc; tr.Enabled() {
		var sat int64
		if satisfied {
			sat = 1
		}
		tr.Emit(obs.Ev(obs.EvFinish).Req(r.ID).Node(int(n.ID)).Service(int(r.Type)).
			Cls(r.Class.String()).Val(float64(latency) / float64(time.Millisecond)).Au(sat))
		if r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanExec, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
			tr.EmitSpan(obs.Sp(obs.SpanReturn, now, now+ret).Child(r.SpanID).Req(r.ID).
				Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
			detail := ""
			if !satisfied {
				detail = "violated"
			}
			tr.EmitSpan(obs.Sp(obs.SpanRequest, r.Arrival, now+ret).WithID(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()).
				Dec(r.DecisionID).Note(detail))
			r.mark = now
		}
	}
	n.eng.emit(Outcome{Req: r, Completed: true, Satisfied: satisfied, Latency: latency, FinishedAt: now})
	n.drain()
}

// drain offers queued requests (LC first) to the policy until it refuses.
func (n *Node) drain() {
	progress := true
	for progress {
		progress = false
		if len(n.queueLC) > 0 {
			r := n.queueLC[0]
			if alloc, ok := n.admit(r); ok {
				n.queueLC = n.queueLC[1:]
				n.start(r, alloc)
				progress = true
				continue
			}
		}
		if len(n.queueBE) > 0 {
			r := n.queueBE[0]
			if alloc, ok := n.admit(r); ok {
				n.queueBE = n.queueBE[1:]
				n.start(r, alloc)
				progress = true
			}
		}
	}
}

func (e *Engine) emit(o Outcome) {
	if e.cfg.OnOutcome != nil {
		e.cfg.OnOutcome(o)
	}
}

// ---- state accessors (used by policies and schedulers) ----

// Free returns capacity minus all running allocations.
func (n *Node) Free() res.Vector { return n.Capacity.Sub(n.used) }

// Used returns the sum of running allocations.
func (n *Node) Used() res.Vector { return n.used }

// UsedByLC returns the LC share of Used.
func (n *Node) UsedByLC() res.Vector { return n.usedLC }

// UsedByBE returns the BE share of Used.
func (n *Node) UsedByBE() res.Vector { return n.used.Sub(n.usedLC) }

// AvailableForLC is what LC admission may draw on under the §4.1
// regulations: idle resources plus everything BE currently holds
// (compressible via shares transfer, incompressible via eviction).
func (n *Node) AvailableForLC() res.Vector { return n.Capacity.Sub(n.usedLC) }

// QueueLen returns (LC, BE) queue lengths.
func (n *Node) QueueLen() (int, int) { return len(n.queueLC), len(n.queueBE) }

// InTransit returns the demand of requests dispatched to this node that
// have not arrived yet.
func (n *Node) InTransit() res.Vector { return n.inTransit }

// QueuedDemand sums the effective demand of every request waiting in
// this node's queues.
func (n *Node) QueuedDemand() res.Vector {
	sum := n.QueuedLCDemand()
	for _, r := range n.queueBE {
		sum = sum.Add(n.EffectiveDemand(r.Type))
	}
	return sum
}

// ProjectedUtilization is the dominant-share load counting running
// allocations, queued demand and in-transit dispatches — the forward-
// looking view a load balancer uses.
func (n *Node) ProjectedUtilization() float64 {
	return n.used.Add(n.inTransit).Add(n.QueuedDemand()).DominantShare(n.Capacity)
}

// QueuedLCDemand sums the effective demand of LC requests waiting in
// this node's queue — resources already spoken for by earlier dispatch
// rounds, which DSS-LC subtracts from availability (Eq. 2).
func (n *Node) QueuedLCDemand() res.Vector {
	var sum res.Vector
	for _, r := range n.queueLC {
		sum = sum.Add(n.EffectiveDemand(r.Type))
	}
	return sum
}

// QueuedOfType counts queued requests of one service type.
func (n *Node) QueuedOfType(t trace.TypeID) int {
	c := 0
	for _, r := range n.queueLC {
		if r.Type == t {
			c++
		}
	}
	for _, r := range n.queueBE {
		if r.Type == t {
			c++
		}
	}
	return c
}

// RunningCount returns the number of in-flight requests.
func (n *Node) RunningCount() int { return len(n.running) }

// EffectiveDemand is the minimum allocation for a type on this node,
// after any QoS re-assurance override.
func (n *Node) EffectiveDemand(t trace.TypeID) res.Vector {
	if v, ok := n.AllocOverride[t]; ok {
		return v
	}
	return n.eng.cfg.Catalog.MinDemand(t)
}

// Utilization returns Used/Capacity as the dominant-share fraction.
func (n *Node) Utilization() float64 { return n.used.DominantShare(n.Capacity) }

// CPUUtilization returns the CPU fraction in use.
func (n *Node) CPUUtilization() float64 {
	if n.Capacity.MilliCPU == 0 {
		return 0
	}
	return float64(n.used.MilliCPU) / float64(n.Capacity.MilliCPU)
}

// ---- preemption mechanics (§4.1) ----

// CompressBE transfers compressible resources (CPU, bandwidth) from
// running BE requests to the caller, newest victims first, without
// stopping them: each victim keeps at least minKeepFrac of its original
// CPU. Returns how much was actually freed.
func (n *Node) CompressBE(need res.Vector, minKeepFrac float64) res.Vector {
	if minKeepFrac <= 0 {
		minKeepFrac = 0.25
	}
	var freed res.Vector
	victims := n.runningBENewestFirst()
	for _, ru := range victims {
		if freed.MilliCPU >= need.MilliCPU && freed.BWMbps >= need.BWMbps {
			break
		}
		n.settle(ru)
		floorCPU := int64(float64(ru.req.SType.MinDemand.MilliCPU)*minKeepFrac + 0.5)
		if floorCPU < 10 {
			floorCPU = 10
		}
		cutCPU := ru.alloc.MilliCPU - floorCPU
		if cutCPU < 0 {
			cutCPU = 0
		}
		if wantCPU := need.MilliCPU - freed.MilliCPU; cutCPU > wantCPU {
			cutCPU = wantCPU
		}
		cutBW := ru.alloc.BWMbps
		if wantBW := need.BWMbps - freed.BWMbps; cutBW > wantBW {
			cutBW = wantBW
		}
		if cutCPU <= 0 && cutBW <= 0 {
			continue
		}
		cut := res.V(cutCPU, 0, cutBW)
		ru.alloc = ru.alloc.Sub(cut)
		n.used = n.used.Sub(cut)
		freed = freed.Add(cut)
		n.ScaleOps++
		if tr := n.eng.trc; tr.Enabled() {
			tr.Emit(obs.Ev(obs.EvCompress).Req(ru.req.ID).Node(int(n.ID)).
				Service(int(ru.req.Type)).Val(float64(cutCPU)).Au(cutBW))
		}
		n.scheduleDone(ru, 0)
	}
	return freed
}

// EvictBE evicts running BE requests (newest first) until at least
// needMemMiB of memory is reclaimed or no BE remains. Evicted requests
// are restarted from scratch at the tail of this node's BE queue
// (the §4.1 "evicting and restarting running BE services at a later
// time"). Returns the reclaimed memory.
func (n *Node) EvictBE(needMemMiB int64) int64 {
	var reclaimed int64
	for _, ru := range n.runningBENewestFirst() {
		if reclaimed >= needMemMiB {
			break
		}
		if ru.done != nil {
			ru.done.Cancel()
		}
		delete(n.running, ru.req.ID)
		n.used = n.used.Sub(ru.alloc)
		reclaimed += ru.alloc.MemoryMiB
		ru.req.Restarts++
		n.queueBE = append(n.queueBE, ru.req)
		n.ScaleOps++
		if tr := n.eng.trc; tr.Enabled() {
			tr.Emit(obs.Ev(obs.EvEvict).Req(ru.req.ID).Node(int(n.ID)).
				Service(int(ru.req.Type)).Val(float64(ru.alloc.MemoryMiB)).Au(int64(ru.req.Restarts)))
			n.emitEvictedSpan(ru.req)
		}
	}
	return reclaimed
}

// emitEvictedSpan closes the evicted request's current stage as an
// "evicted" child span, so restart cycles stay visible in the tiling.
func (n *Node) emitEvictedSpan(r *Request) {
	if r.SpanID == 0 {
		return
	}
	now := n.eng.cfg.Sim.Now()
	n.eng.trc.EmitSpan(obs.Sp(obs.SpanEvicted, r.mark, now).Child(r.SpanID).Req(r.ID).
		Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
	r.mark = now
}

// EvictBEUntil evicts running BE requests (newest first, restarting them
// at the BE queue tail) until the node's free resources fit need, or no
// BE remains. It reports whether need now fits.
func (n *Node) EvictBEUntil(need res.Vector) bool {
	for _, ru := range n.runningBENewestFirst() {
		if n.Free().Fits(need) {
			return true
		}
		if ru.done != nil {
			ru.done.Cancel()
		}
		delete(n.running, ru.req.ID)
		n.used = n.used.Sub(ru.alloc)
		ru.req.Restarts++
		n.queueBE = append(n.queueBE, ru.req)
		n.ScaleOps++
		if tr := n.eng.trc; tr.Enabled() {
			tr.Emit(obs.Ev(obs.EvEvict).Req(ru.req.ID).Node(int(n.ID)).
				Service(int(ru.req.Type)).Val(float64(ru.alloc.MemoryMiB)).Au(int64(ru.req.Restarts)))
			n.emitEvictedSpan(ru.req)
		}
	}
	return n.Free().Fits(need)
}

func (n *Node) runningBENewestFirst() []*running {
	var out []*running
	for _, ru := range n.running {
		if ru.req.Class == trace.BE {
			out = append(out, ru)
		}
	}
	// newest (highest seq) first; deterministic because seq is unique
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].seq > out[j-1].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// GrantBE expands a running BE request's CPU allocation up to extra
// additional millicores if idle resources allow (BE maximizing idle
// resources, §4.1, Figure 4(a)). Returns the amount granted.
func (n *Node) GrantBE(reqID int64, extraCPU int64) int64 {
	ru, ok := n.running[reqID]
	if !ok || ru.req.Class != trace.BE {
		return 0
	}
	free := n.Free().MilliCPU
	if extraCPU > free {
		extraCPU = free
	}
	if extraCPU <= 0 {
		return 0
	}
	n.settle(ru)
	ru.alloc.MilliCPU += extraCPU
	n.used.MilliCPU += extraCPU
	n.ScaleOps++
	if tr := n.eng.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvBoost).Req(reqID).Node(int(n.ID)).
			Service(int(ru.req.Type)).Val(float64(extraCPU)))
	}
	n.scheduleDone(ru, 0)
	return extraCPU
}

// RunningBE lists the IDs of running BE requests (newest first).
func (n *Node) RunningBE() []int64 {
	var ids []int64
	for _, ru := range n.runningBENewestFirst() {
		ids = append(ids, ru.req.ID)
	}
	return ids
}

// Down reports whether the node has failed.
func (n *Node) Down() bool { return n.down }

// Fail takes the node down: every running and queued request is
// displaced (handed to Config.OnDisplaced, or emitted as failed
// outcomes), allocations are released, and future arrivals are displaced
// immediately until Recover is called.
func (n *Node) Fail() {
	if n.down {
		return
	}
	n.down = true
	var displaced []*Request
	for _, ru := range n.running {
		if ru.done != nil {
			ru.done.Cancel()
		}
		n.used = n.used.Sub(ru.alloc)
		if ru.req.Class == trace.LC {
			n.usedLC = n.usedLC.Sub(ru.alloc)
		}
		ru.req.Restarts++
		displaced = append(displaced, ru.req)
	}
	n.running = map[int64]*running{}
	for _, r := range n.queueLC {
		if r.abandonEv != nil {
			r.abandonEv.Cancel()
			r.abandonEv = nil
		}
		displaced = append(displaced, r)
	}
	displaced = append(displaced, n.queueBE...)
	n.queueLC, n.queueBE = nil, nil
	// Deterministic order: by request ID.
	for i := 1; i < len(displaced); i++ {
		for j := i; j > 0 && displaced[j].ID < displaced[j-1].ID; j-- {
			displaced[j], displaced[j-1] = displaced[j-1], displaced[j]
		}
	}
	if tr := n.eng.trc; tr.Enabled() {
		tr.Emit(obs.Ev(obs.EvNodeFail).Node(int(n.ID)).Clu(int(n.Cluster)).Au(int64(len(displaced))))
		// The displaced slice is sorted by request ID, so span emission
		// order stays deterministic despite the map walk above.
		now := n.eng.cfg.Sim.Now()
		for _, r := range displaced {
			if r.SpanID == 0 {
				continue
			}
			tr.EmitSpan(obs.Sp(obs.SpanInterrupted, r.mark, now).Child(r.SpanID).Req(r.ID).
				Clu(int(n.Cluster)).Node(int(n.ID)).Service(int(r.Type)).Cls(r.Class.String()))
			r.mark = now
		}
	}
	n.eng.displace(displaced)
}

// Recover brings a failed node back with empty queues and full capacity.
func (n *Node) Recover() {
	if n.down {
		if tr := n.eng.trc; tr.Enabled() {
			tr.Emit(obs.Ev(obs.EvNodeRecover).Node(int(n.ID)).Clu(int(n.Cluster)))
		}
	}
	n.down = false
}

func (e *Engine) displace(reqs []*Request) {
	if len(reqs) == 0 {
		return
	}
	if e.cfg.OnDisplaced != nil {
		e.cfg.OnDisplaced(reqs)
		return
	}
	now := e.cfg.Sim.Now()
	for _, r := range reqs {
		if r.Class == trace.LC {
			e.Abandoned++
		}
		if tr := e.trc; tr.Enabled() && r.SpanID != 0 {
			tr.EmitSpan(obs.Sp(obs.SpanRequest, r.Arrival, now).WithID(r.SpanID).Req(r.ID).
				Clu(int(r.Cluster)).Service(int(r.Type)).Cls(r.Class.String()).
				Dec(r.DecisionID).Note("displaced"))
		}
		e.emit(Outcome{Req: r, Completed: false, Satisfied: false,
			Latency: now - r.Arrival, FinishedAt: now})
	}
}

// GreedyPolicy admits a request whenever its effective demand fits the
// node's idle resources — no priorities, no preemption. This is the
// baseline "unordered competition" behaviour of native K8s co-location.
type GreedyPolicy struct{}

// Admit implements Policy.
func (GreedyPolicy) Admit(n *Node, r *Request) (res.Vector, bool) {
	d := n.EffectiveDemand(r.Type)
	if n.Free().Fits(d) {
		return d, true
	}
	return res.Vector{}, false
}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }
