package core

import (
	"fmt"

	"multiedge/internal/frame"
	"multiedge/internal/hostmodel"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
	"multiedge/internal/trace"
)

// Endpoint is one node's instance of the MultiEdge protocol layer: the
// kernel character device of IPPS'07 §2.1, owning the node's NICs, its
// remotely accessible memory, and all connections.
type Endpoint struct {
	env   *sim.Env
	node  int
	cfg   Config
	costs hostmodel.Costs
	cpus  hostmodel.CPUs
	nics  []*phys.NIC

	mem    []byte
	memBrk uint64

	conns      *connTable        // by local connection id, sharded
	byPeer     map[peerKey]*Conn // handshake dedupe
	nextConnID uint32
	acceptAll  bool
	accepted   sim.Mailbox[*Conn]

	wheel *sim.Wheel // coalesced protocol timers (Config.TimerWheelTick)

	threadActive bool
	rxPrefer     int // NIC to poll first (the one that interrupted, NAPI-style)

	// Hot-path scheduling plumbing: the protocol thread's continuations
	// are built once here and passed by reference, so steady-state frame
	// work schedules no per-event closures (see SchedAtArg/SubmitArg).
	// rxJobFree recycles the per-frame dispatch records.
	threadStepFn func()
	ctrlStepFn   func(any) // arg *Conn: ACK/NACK service
	dataStepFn   func(any) // arg *Conn: data service charged to sendCls
	dispatchFn   func(any) // arg *rxJob: decoded-frame dispatch
	fireSigFn    func(any) // arg *sim.Signal: user wake (handle/CQ completion)
	rxJobFree    []*rxJob

	// Connection scheduler: per-class control and data FIFOs, quota
	// state and the DWFQ cursors (see qos.go). One implicit class when
	// Config.QoS is empty.
	qos          []qosClass
	ctrlCur      int  // weighted-round-robin cursor over class ctrl queues
	sendCur      int  // DWFQ cursor over class send queues
	sendCls      int  // class picked by the last popSend, charged for its frame
	qosPaceArmed bool // a wire-pacing wake is already scheduled

	notifyAll *sim.Mailbox[Notification]

	regions []memRegion // registered memory (EnforceRegistration)

	engine *sim.Resource // NIC protocol engine (Config.Offload)

	tracer *trace.Trace // optional frame-level event trace

	rec *obs.Recorder // optional flight recorder (nil = off)

	obs          *obs.Registry  // optional metrics/span registry (nil = off)
	holdHist     *obs.Histogram // receive-side hold duration, µs
	sqDepth      *obs.Gauge     // posted-but-unrung descriptors, all conns
	cqDepth      *obs.Gauge     // unpolled completions, all conns
	doorbellHist *obs.Histogram // descriptors issued per doorbell
	coalesceHist *obs.Histogram // sub-ops packed per MultiData frame
	rtoHist      *obs.Histogram // adaptive RTO estimate at each update, µs
	backoffHist  *obs.Histogram // consecutive-expiry depth at each RTO firing
	reconnHist   *obs.Histogram // outage duration per completed reconnect, µs
	redialHist   *obs.Histogram // dialer redial attempts per completed reconnect

	Stats Stats
}

// memRegion is one registered local buffer.
type memRegion struct {
	addr uint64
	size int
}

// rxJob carries one decoded frame from the protocol-CPU charge to its
// dispatch. Records are recycled through Endpoint.rxJobFree so the
// steady-state receive path allocates nothing; the frame (and therefore
// the payload, which aliases fr.Buf) is released by dispatchFn after
// dispatchFrame returns, so any code that buffers a payload past
// dispatch must copy it first (see the hold paths in conn.go).
type rxJob struct {
	fr      *phys.Frame
	src     frame.Addr
	h       frame.Header
	payload []byte
	link    int
	ecn     bool // congestion-experienced mark carried out of band by fr
}

func (ep *Endpoint) getRxJob() *rxJob {
	if n := len(ep.rxJobFree); n > 0 {
		j := ep.rxJobFree[n-1]
		ep.rxJobFree = ep.rxJobFree[:n-1]
		return j
	}
	return &rxJob{}
}

type peerKey struct {
	node   int
	connID uint32
}

// NewEndpoint creates the protocol layer for a node. The endpoint
// installs itself as the interrupt host of every NIC.
func NewEndpoint(env *sim.Env, node int, cfg Config, costs hostmodel.Costs, cpus hostmodel.CPUs, nics []*phys.NIC) *Endpoint {
	if cfg.Window <= 0 || cfg.AckEvery <= 0 || cfg.MemBytes <= 0 {
		panic("core: invalid Config")
	}
	ep := &Endpoint{
		env: env, node: node, cfg: cfg, costs: costs, cpus: cpus, nics: nics,
		mem:        make([]byte, cfg.MemBytes),
		conns:      newConnTable(),
		byPeer:     make(map[peerKey]*Conn),
		nextConnID: 1,
		acceptAll:  true,
	}
	ep.threadStepFn = ep.threadStep
	ep.ctrlStepFn = func(x any) {
		c := x.(*Conn)
		c.sendCtrl()
		ep.kickConn(c)
		ep.threadStep()
	}
	ep.dataStepFn = func(x any) {
		c := x.(*Conn)
		n := c.sendNextDataFrame()
		ep.chargeSend(ep.sendCls, n)
		ep.kickConn(c)
		ep.threadStep()
	}
	ep.dispatchFn = func(x any) {
		j := x.(*rxJob)
		fr, src, h, payload, link, ecn := j.fr, j.src, j.h, j.payload, j.link, j.ecn
		*j = rxJob{}
		ep.rxJobFree = append(ep.rxJobFree, j)
		ep.dispatchFrame(src, h, payload, link, ecn)
		fr.Release()
		ep.threadStep()
	}
	ep.fireSigFn = func(x any) { x.(*sim.Signal).Fire(ep.env) }
	if cfg.TimerWheelTick > 0 {
		ep.wheel = sim.NewWheel(env, cfg.TimerWheelTick)
	}
	ep.initSched()
	for _, n := range nics {
		n.SetHost(ep)
	}
	if cfg.Offload {
		if ep.cfg.OffloadFactor <= 0 {
			ep.cfg.OffloadFactor = 1 // pipelined NIC engine at host parity
		}
		ep.engine = sim.NewResource(fmt.Sprintf("n%d/nic-engine", node))
	}
	return ep
}

// protoRes returns the resource protocol work runs on: the host
// protocol CPU, or the NIC engine in offload mode.
func (ep *Endpoint) protoRes() *sim.Resource {
	if ep.engine != nil {
		return ep.engine
	}
	return ep.cpus.Proto
}

// protoCost scales a unit of per-frame protocol work for the executing
// engine (embedded NIC cores are slower than the host CPU).
func (ep *Endpoint) protoCost(t sim.Time) sim.Time {
	if ep.engine != nil {
		return t * sim.Time(ep.cfg.OffloadFactor)
	}
	return t
}

// Engine exposes the NIC protocol engine (nil unless offloading), for
// utilization reporting.
func (ep *Endpoint) Engine() *sim.Resource { return ep.engine }

// timer is the common handle for protocol timers, satisfied by both
// plain heap timers (*sim.Timer) and wheel timers (*sim.WheelTimer) so
// connections need not know which backing Config selected.
type timer interface {
	Stop() bool
	Pending() bool
}

// rearmTimer schedules a periodically re-armed protocol timer: through
// the endpoint's timer wheel when Config.TimerWheelTick is set, else on
// the event heap, where it re-points the existing Timer handle in
// place (sim.Env.Rearm) instead of allocating a fresh one per arm — the
// RTO timer re-arms on every transmit, so that would be a per-frame
// allocation.
// The wheel backing has no in-place re-arm: each arm allocates a fresh
// *sim.WheelTimer, and the stale one is skipped when its bucket fires.
func (ep *Endpoint) rearmTimer(t timer, d sim.Time, fn func()) timer {
	if ep.wheel != nil {
		return ep.wheel.After(d, fn)
	}
	st, _ := t.(*sim.Timer)
	return ep.env.Rearm(st, d, fn)
}

// afterDaemonTimer schedules a daemon protocol timer, wheel- or
// heap-backed like rearmTimer: the timer never keeps a drained
// simulation alive (heartbeats, liveness guards).
func (ep *Endpoint) afterDaemonTimer(d sim.Time, fn func()) timer {
	if ep.wheel != nil {
		return ep.wheel.AfterDaemon(d, fn)
	}
	return ep.env.AfterDaemon(d, fn)
}

// rearmDaemonTimer is afterDaemonTimer for re-armed daemon timers (the
// read-reply liveness guard arms per read): on the heap backing it
// re-points the existing Timer handle in place, like rearmTimer.
func (ep *Endpoint) rearmDaemonTimer(t timer, d sim.Time, fn func()) timer {
	if ep.wheel != nil {
		return ep.wheel.AfterDaemon(d, fn)
	}
	st, _ := t.(*sim.Timer)
	return ep.env.RearmDaemon(st, d, fn)
}

// removeConn unlinks a torn-down connection from the endpoint: demux
// table and handshake dedupe. Scheduler queue entries
// are left to lazy invalidation (closed conns fail the pop re-check).
// Idempotent; frames that arrive for a removed connection are dropped
// at dispatch, except retransmitted ConnClose frames, which get a
// stateless acknowledgement so the peer's close handshake still
// terminates.
func (ep *Endpoint) removeConn(c *Conn) {
	if _, ok := ep.conns.get(c.localID); !ok {
		return
	}
	ep.conns.del(c.localID)
	k := peerKey{node: c.remoteNode, connID: c.remoteID}
	if ep.byPeer[k] == c {
		delete(ep.byPeer, k)
	}
}

// ActiveConns returns how many connections the endpoint currently
// carries (closed and failed conns are removed from the table).
func (ep *Endpoint) ActiveConns() int { return ep.conns.len() }

// SetTrace attaches a frame-level event trace (nil disables). Tracing
// records transmit/receive/reorder/retransmission events for the
// paper-style network-traffic analysis.
func (ep *Endpoint) SetTrace(t *trace.Trace) { ep.tracer = t }

// trc records one trace event if tracing is enabled.
func (ep *Endpoint) trc(conn uint32, k trace.Kind, seq uint32, n int) {
	if ep.tracer != nil {
		ep.tracer.Add(ep.node, conn, k, seq, n)
	}
}

// SetRecorder attaches a flight recorder (nil disables). Recording is a
// nil-checked store into a preallocated ring — no allocation, no RNG,
// no scheduled events — so the recorder observes without perturbing the
// simulation and stress harnesses leave it on unconditionally.
func (ep *Endpoint) SetRecorder(r *obs.Recorder) { ep.rec = r }

// Recorder returns the attached flight recorder (nil when off).
func (ep *Endpoint) Recorder() *obs.Recorder { return ep.rec }

// recEvent records one flight-recorder event if recording is enabled.
func (ep *Endpoint) recEvent(conn uint32, k obs.RecKind, a, b int64) {
	if ep.rec != nil {
		ep.rec.Record(ep.env.Now(), conn, k, a, b)
	}
}

// SetObs attaches the observability registry (nil disables). Metrics
// are mirrored from Stats by a collector at gather time (see
// Stats.Collector), so the per-frame hot path pays only nil checks;
// span recording additionally requires Registry.EnableSpans.
func (ep *Endpoint) SetObs(r *obs.Registry) {
	ep.obs = r
	ep.holdHist = r.Histogram("core_hold_us", nil, obs.NodeLabel(ep.node))
	ep.sqDepth = r.Gauge("core_sq_depth", obs.NodeLabel(ep.node))
	ep.cqDepth = r.Gauge("core_cq_depth", obs.NodeLabel(ep.node))
	ep.doorbellHist = r.Histogram("core_doorbell_batch_ops", nil, obs.NodeLabel(ep.node))
	ep.coalesceHist = r.Histogram("core_coalesce_subops", nil, obs.NodeLabel(ep.node))
	ep.rtoHist = r.Histogram("core_rto_us", nil, obs.NodeLabel(ep.node))
	ep.backoffHist = r.Histogram("core_rto_backoff", nil, obs.NodeLabel(ep.node))
	ep.reconnHist = r.Histogram("core_reconnect_outage_us", nil, obs.NodeLabel(ep.node))
	ep.redialHist = r.Histogram("core_reconnect_attempts", nil, obs.NodeLabel(ep.node))
	r.AddCollector(ep.Stats.Collector(ep.node))
	// Scaling gauges are sampled at gather time straight from the live
	// structures, so the hot path (kick/pop/arm) pays nothing for them.
	nl := obs.NodeLabel(ep.node)
	r.AddCollector(func(emit func(obs.Sample)) {
		g := func(name string, v float64) {
			emit(obs.Sample{Name: name, Labels: []obs.Label{nl}, Value: v, Type: obs.TypeGauge})
		}
		g("core_active_conns", float64(ep.conns.len()))
		ctrl, send := ep.schedDepth()
		g("core_sched_queue_depth", float64(ctrl+send))
		g("core_timer_wheel_entries", float64(ep.wheel.Len()))
	})
	if ep.qosOn() {
		r.AddCollector(ep.qosCollector())
	}
}

// noteSQDepth tracks the node-wide submission-queue depth gauge (nil-safe
// when observability is off).
func (ep *Endpoint) noteSQDepth(d int) {
	if ep.sqDepth != nil {
		ep.sqDepth.Add(float64(d))
	}
}

// noteCQDepth tracks the node-wide completion-queue depth gauge.
func (ep *Endpoint) noteCQDepth(d int) {
	if ep.cqDepth != nil {
		ep.cqDepth.Add(float64(d))
	}
}

// Obs returns the attached registry (nil when observability is off).
func (ep *Endpoint) Obs() *obs.Registry { return ep.obs }

// Node returns the node id this endpoint runs on.
func (ep *Endpoint) Node() int { return ep.node }

// Env returns the simulation environment.
func (ep *Endpoint) Env() *sim.Env { return ep.env }

// CPUs returns the node's modelled processors.
func (ep *Endpoint) CPUs() hostmodel.CPUs { return ep.cpus }

// NICs returns the node's network interfaces.
func (ep *Endpoint) NICs() []*phys.NIC { return ep.nics }

// Config returns the protocol configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Mem exposes the endpoint's remotely accessible address space. The
// local application reads and writes it directly (it is the process'
// own memory); remote nodes access it through RDMA operations.
func (ep *Endpoint) Mem() []byte { return ep.mem }

// RegisterMemory registers [addr, addr+size) as a valid local buffer
// for operation initiation — the paper's registration primitive. Only
// consulted when Config.EnforceRegistration is set; receive buffers
// never need registration (data is delivered directly into the virtual
// address space, IPPS'07 §2.2).
func (ep *Endpoint) RegisterMemory(addr uint64, size int) {
	if size <= 0 || addr+uint64(size) > uint64(len(ep.mem)) {
		panic("core: RegisterMemory: region outside address space")
	}
	ep.regions = append(ep.regions, memRegion{addr: addr, size: size})
}

// DeregisterMemory removes a previously registered region (exact match).
func (ep *Endpoint) DeregisterMemory(addr uint64) {
	for i, r := range ep.regions {
		if r.addr == addr {
			ep.regions = append(ep.regions[:i], ep.regions[i+1:]...)
			return
		}
	}
}

// registered reports whether [addr, addr+size) lies inside one
// registered region. Zero-size buffers are always permitted.
func (ep *Endpoint) registered(addr uint64, size int) bool {
	if size == 0 {
		return true
	}
	for _, r := range ep.regions {
		if addr >= r.addr && addr+uint64(size) <= r.addr+uint64(r.size) {
			return true
		}
	}
	return false
}

// Alloc reserves size bytes in the address space and returns the base
// address. Allocations are 64-byte aligned and never freed (arena
// style); it panics when the address space is exhausted.
func (ep *Endpoint) Alloc(size int) uint64 {
	const align = 64
	base := (ep.memBrk + align - 1) &^ (align - 1)
	if base+uint64(size) > uint64(len(ep.mem)) {
		panic(fmt.Sprintf("core: node %d out of memory: need %d at %d of %d",
			ep.node, size, base, len(ep.mem)))
	}
	ep.memBrk = base + uint64(size)
	return base
}

// ---------------------------------------------------------------------
// Interrupts and the protocol kernel thread (IPPS'07 §2.6).
//
// The interrupt handler masks the NIC and wakes the protocol thread.
// The thread polls every NIC for received frames and transmit
// completions, performs all per-frame work on the protocol CPU, and
// re-enables interrupts only when no work remains.
// ---------------------------------------------------------------------

// Interrupt implements phys.Host.
func (ep *Endpoint) Interrupt(n *phys.NIC) {
	n.Mask()
	for i, nn := range ep.nics {
		if nn == n {
			ep.rxPrefer = i // service the interrupting NIC first
			break
		}
	}
	intr := ep.costs.Interrupt
	if ep.engine != nil {
		// On-NIC event dispatch, not a host interrupt.
		intr = 100 * sim.Nanosecond
	}
	ep.protoRes().Submit(ep.env, ep.protoCost(intr), nil)
	ep.wakeThread()
}

// wakeThread starts the protocol thread if it is idle. It also serves as
// the doorbell rung by operation initiation.
func (ep *Endpoint) wakeThread() {
	if ep.threadActive {
		return
	}
	ep.threadActive = true
	wake := ep.costs.Wakeup
	if ep.engine != nil {
		// The NIC engine polls; no kernel-thread wakeup is paid.
		wake = 100 * sim.Nanosecond
	}
	ep.protoRes().Submit(ep.env, ep.protoCost(wake), ep.threadStepFn)
}

// threadStep performs one unit of protocol work and reschedules itself
// until no work remains, then unmasks interrupts and sleeps.
func (ep *Endpoint) threadStep() {
	// 1. Retire transmit completions (cheap, batched).
	var txDone int
	for _, n := range ep.nics {
		txDone += n.TakeTxDone()
	}
	if txDone > 0 {
		ep.protoRes().Submit(ep.env, ep.protoCost(sim.Time(txDone)*ep.costs.TxDone), ep.threadStepFn)
		return
	}
	// 2. Receive, starting with the NIC that interrupted and sticking
	// with it until its ring drains (NAPI-style batching).
	for i := 0; i < len(ep.nics); i++ {
		idx := (ep.rxPrefer + i) % len(ep.nics)
		if fr := ep.nics[idx].PollRxOne(); fr != nil {
			ep.rxPrefer = idx
			ep.processRxFrame(fr, idx)
			return
		}
	}
	// 3+4. Send pending control frames (ACK/NACK), then one data frame
	// from a connection with window space, by weighted-fair pops across
	// the class queues. Both are O(1) FIFO pops per class, so per-step
	// cost does not grow with the connection count; a connection with
	// more work re-enqueues at the tail, so service within a class stays
	// fair round-robin.
	if c := ep.popCtrl(); c != nil {
		ep.protoRes().SubmitArg(ep.env, ep.protoCost(ep.costs.AckProc), ep.ctrlStepFn, c)
		return
	}
	if len(ep.qos) > 1 && ep.qosSendWork() && ep.qosNICBusy() {
		// Wire-pacing: with every NIC's transmit queue at the bound,
		// dispatching now would just bury frames in the NIC FIFO where
		// DWFQ no longer decides their order. Hold them in the class
		// queues and come back when the head frame clears the wire. A
		// single class has no cross-class order for the FIFO to break.
		ep.qosArmPace()
	} else if c := ep.popSend(); c != nil {
		// The thread loop is strictly serialized (each dispatched branch
		// calls threadStep again when it finishes), so at most one data
		// dispatch is in flight and sendCls carries the served class to
		// the charge.
		ep.protoRes().SubmitArg(ep.env, ep.protoCost(ep.costs.FrameTx), ep.dataStepFn, c)
		return
	}
	// No work: sleep and unmask (re-raises if anything slipped in).
	ep.threadActive = false
	for _, n := range ep.nics {
		n.Unmask()
	}
}

// processRxFrame charges the receive cost of one frame, then applies its
// protocol effects and continues the thread loop. link is the index of
// the NIC the frame arrived on.
func (ep *Endpoint) processRxFrame(fr *phys.Frame, link int) {
	_, src, h, payload, err := frame.Decode(fr.Buf)
	if err != nil {
		// Damaged frame that slipped past the FCS model: treat as loss.
		// The buffer dies here — without the release a pooled frame
		// leaked on every FCS escape.
		fr.Release()
		ep.protoRes().Submit(ep.env, ep.protoCost(ep.costs.FrameRx), ep.threadStepFn)
		return
	}
	var cost sim.Time
	switch h.Type {
	case frame.TypeData, frame.TypeReadReq, frame.TypeMultiData:
		cost = ep.protoCost(ep.costs.FrameRx)
		if ep.engine == nil {
			// Host path pays the kernel->user copy; an offloading NIC
			// DMAs payload directly into user memory.
			cost += ep.costs.Copy(len(payload))
		}
	default:
		cost = ep.protoCost(ep.costs.AckProc)
	}
	j := ep.getRxJob()
	j.fr, j.src, j.h, j.payload, j.link, j.ecn = fr, src, h, payload, link, fr.Ecn
	ep.protoRes().SubmitArg(ep.env, cost, ep.dispatchFn, j)
}

// dispatchFrame routes a decoded frame to connection handling. ecn is
// the frame's out-of-band congestion-experienced mark (phys.Frame.Ecn),
// observed here because the mark belongs to the wire frame, not to the
// CRC-covered header the switches cannot rewrite.
func (ep *Endpoint) dispatchFrame(src frame.Addr, h frame.Header, payload []byte, link int, ecn bool) {
	switch h.Type {
	case frame.TypeConnReq:
		ep.handleConnReq(src, h)
		return
	case frame.TypeConnAck:
		ep.handleConnAck(src, h)
		return
	}
	c, ok := ep.conns.get(h.ConnID)
	if !ok {
		if h.Type == frame.TypeConnClose {
			// A retransmitted close for a connection we already tore
			// down and removed: re-acknowledge statelessly (the reply
			// is built purely from the incoming header, echoing its
			// incarnation) so the peer's handshake terminates instead
			// of retrying into silence.
			ah := frame.Header{Type: frame.TypeConnCloseAck, ConnID: uint32(h.OpID),
				Incarnation: h.Incarnation}
			buf := frame.MustEncode(src, ep.nics[0].Addr(), &ah, nil)
			ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: src, Src: ep.nics[0].Addr()})
		}
		return // stale frame for a connection we do not know
	}
	if ep.cfg.Reconnect {
		// Epoch fence: a frame from a dead incarnation — duplicated,
		// delayed in a deep queue, or replayed across a rail restore —
		// must never touch live connection state. While the conn is
		// parked in Reconnecting its own epoch is condemned too, so
		// matching-incarnation frames are equally stale.
		if h.Incarnation != c.incarnation || c.reconnecting {
			ep.Stats.StaleEpochDrops++
			ep.recEvent(c.localID, obs.RecStaleDrop, int64(h.Incarnation), int64(c.incarnation))
			return
		}
	}
	if h.Type == frame.TypeConnClose {
		// Peer-initiated teardown: acknowledge (idempotently — the
		// close may be retransmitted), stop every timer the conn owns,
		// and drop it from the tables. In a simultaneous close our own
		// handshake completes here too: the peer has committed to
		// teardown, and its side answers our retransmitted ConnClose
		// statelessly even after it forgets the conn.
		if c.closed && !c.failed && !c.closedSig.Fired() {
			c.stopCloseTimer()
			c.closedSig.Fire(ep.env)
		}
		c.closed = true
		c.stopTimers()
		ep.recEvent(c.localID, obs.RecClosed, 1, 0)
		ah := frame.Header{Type: frame.TypeConnCloseAck, ConnID: uint32(h.OpID),
			Incarnation: h.Incarnation}
		buf := frame.MustEncode(src, ep.nics[0].Addr(), &ah, nil)
		ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: src, Src: ep.nics[0].Addr()})
		ep.removeConn(c)
		return
	}
	if h.Type == frame.TypeConnCloseAck {
		if !c.closedSig.Fired() {
			c.stopCloseTimer()
			c.closedSig.Fire(ep.env)
			ep.removeConn(c)
		}
		return
	}
	if c.closed {
		return // late frames for a torn-down (or failed) connection
	}
	c.lastHeard = ep.env.Now()
	if ecn {
		// A switch queue along the path marked this frame: remember it so
		// the next ack-bearing frame echoes congestion to the sender.
		ep.Stats.EcnMarksSeen++
		c.ccEcnRx++
	}
	if h.EcnEcho {
		// The peer echoed marks our own data picked up in the fabric.
		c.ccOnEcnEcho()
	}
	switch h.Type {
	case frame.TypeData, frame.TypeReadReq, frame.TypeMultiData:
		c.handleData(h, payload, link)
	case frame.TypeAck:
		ep.Stats.CtrlRecv++
		c.handleAck(h.Ack)
	case frame.TypeNack:
		ep.Stats.CtrlRecv++
		c.handleAck(h.Ack)
		if missing, err := frame.DecodeNackPayload(payload); err == nil {
			c.handleNack(missing)
		}
	case frame.TypeHeartbeat:
		ep.Stats.CtrlRecv++
		ep.Stats.HeartbeatsRecv++
		c.handleAck(h.Ack)
	case frame.TypeRailProbe:
		// Answer on the arrival NIC: rails are symmetric (NIC i peers
		// with NIC i through switch i), so the echo retraces the probed
		// rail and the round trip measures that rail alone.
		ep.Stats.CtrlRecv++
		c.handleAck(h.Ack)
		eh := frame.Header{Type: frame.TypeRailProbeEcho, ConnID: c.remoteID,
			Ack: c.rcvNxt, HasAck: true, Seq: h.Seq, OpID: h.OpID}
		c.sendFrameOn(&eh, nil, link)
	case frame.TypeRailProbeEcho:
		ep.Stats.CtrlRecv++
		c.handleAck(h.Ack)
		c.railApply(int(h.Seq), ep.env.Now()-sim.Time(h.OpID))
	case frame.TypeReset:
		// The peer abandoned the connection (its failure detector fired).
		// Fail our side too — without echoing a Reset back, which would
		// ping-pong between two live endpoints after a healed partition.
		ep.Stats.CtrlRecv++
		ep.Stats.ResetsRecv++
		c.peerLost(fmt.Errorf("core: connection to node %d reset by peer: %w", c.remoteNode, ErrPeerDead), false)
	}
}

// ---------------------------------------------------------------------
// Connection setup.
// ---------------------------------------------------------------------

// Dial establishes a connection to remoteNode, blocking the calling
// process until the handshake completes. The connection stripes frames
// over min(local NICs, links) physical links; links selects how many of
// the node's NICs to use (0 = all).
func (ep *Endpoint) Dial(p *sim.Proc, remoteNode int, links int) *Conn {
	if remoteNode == ep.node {
		panic("core: dial to self")
	}
	if links <= 0 || links > len(ep.nics) {
		links = len(ep.nics)
	}
	c := ep.newConn(remoteNode, links)
	ep.recEvent(c.localID, obs.RecDial, int64(links), int64(remoteNode))
	c.dialer = true // this side owns redialing under Config.Reconnect
	if ep.cfg.Reconnect {
		c.incarnation = 1 // first epoch; 0 means "incarnations unused"
	}
	attempts := 0
	var retry func()
	send := func() {
		h := frame.Header{Type: frame.TypeConnReq, ConnID: c.localID, OpID: uint64(links),
			Incarnation: c.incarnation}
		buf := frame.MustEncode(frame.NewAddr(remoteNode, 0), ep.nics[0].Addr(), &h, nil)
		ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: frame.NewAddr(remoteNode, 0), Src: ep.nics[0].Addr()})
	}
	retry = func() {
		if c.established.Fired() {
			return
		}
		if mr := ep.cfg.MaxRetries; mr > 0 && attempts > mr {
			// The peer never answered: fail the dial instead of retrying
			// forever. The waiter is released; callers detect the outcome
			// via Conn.Failed / Conn.Err (operations on the conn error out).
			c.failed = true
			c.failErr = fmt.Errorf("core: dial to node %d: no answer after %d attempts: %w",
				remoteNode, attempts, ErrPeerDead)
			c.closed = true
			ep.Stats.PeerDeadEvents++
			ep.trc(c.localID, trace.PeerDead, 0, 0)
			ep.recEvent(c.localID, obs.RecFailed, int64(attempts), 0)
			ep.removeConn(c)
			c.established.Fire(ep.env)
			return
		}
		attempts++
		send()
		c.connTimer = ep.env.After(ep.cfg.ConnRetry, retry)
	}
	ep.env.After(0, retry)
	p.Wait(&c.established)
	return c
}

// GlobalNotify switches notification delivery from per-connection
// queues to a single endpoint-wide queue and returns it. A service
// process can then demultiplex notifications from every peer; the
// Notification's From field identifies the sender. Call before any
// notification traffic.
func (ep *Endpoint) GlobalNotify() *sim.Mailbox[Notification] {
	if ep.notifyAll == nil {
		ep.notifyAll = &sim.Mailbox[Notification]{}
	}
	return ep.notifyAll
}

// Accept blocks until a peer-initiated connection is established and
// returns it.
func (ep *Endpoint) Accept(p *sim.Proc) *Conn {
	return ep.accepted.Recv(p)
}

func (ep *Endpoint) newConn(remoteNode, links int) *Conn {
	c := newConn(ep, ep.nextConnID, remoteNode, links)
	ep.nextConnID++
	ep.conns.put(c.localID, c)
	return c
}

func (ep *Endpoint) handleConnReq(src frame.Addr, h frame.Header) {
	if !ep.acceptAll {
		return
	}
	key := peerKey{node: src.Node(), connID: h.ConnID}
	c, ok := ep.byPeer[key]
	if !ok {
		links := int(h.OpID)
		if links <= 0 || links > len(ep.nics) {
			links = len(ep.nics)
		}
		c = ep.newConn(src.Node(), links)
		c.remoteID = h.ConnID
		c.incarnation = h.Incarnation // adopt the dialer's epoch (0 = feature off)
		ep.byPeer[key] = c
		ep.recEvent(c.localID, obs.RecEstablished, int64(c.incarnation), int64(src.Node()))
		c.established.Fire(ep.env)
		c.startKeepalive()
		ep.accepted.Send(ep.env, c)
	} else if ep.cfg.Reconnect && h.Incarnation != c.incarnation {
		if !incarnNewer(h.Incarnation, c.incarnation) {
			// A redial from an epoch we already superseded (an earlier
			// outage's request, delayed in flight): acking it would
			// regress the connection. Drop it.
			ep.Stats.StaleEpochDrops++
			return
		}
		// The dialer is negotiating a successor epoch: be reborn into it,
		// then ack as usual. Repeated redials for the same incarnation
		// land in the equal branch and only re-send the ack.
		c.acceptReconnect(h.Incarnation)
	}
	// Always (re-)send the ConnAck: the previous one may have been lost.
	ah := frame.Header{Type: frame.TypeConnAck, ConnID: h.ConnID, OpID: uint64(c.localID),
		Incarnation: c.incarnation}
	buf := frame.MustEncode(src, ep.nics[0].Addr(), &ah, nil)
	ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: src, Src: ep.nics[0].Addr()})
}

func (ep *Endpoint) handleConnAck(_ frame.Addr, h frame.Header) {
	c, ok := ep.conns.get(h.ConnID)
	if !ok {
		return
	}
	if c.established.Fired() {
		if ep.cfg.Reconnect && c.reconnecting && c.dialer && h.Incarnation == c.pendingIncarn {
			// The acceptor answered our redial: the successor epoch is
			// live on both sides. Duplicate acks (h.Incarnation already
			// installed, reconnecting false) fall through harmlessly.
			c.completeReconnect()
		}
		return
	}
	c.remoteID = uint32(h.OpID)
	if c.connTimer != nil {
		c.connTimer.Stop()
	}
	ep.recEvent(c.localID, obs.RecEstablished, int64(c.incarnation), int64(c.remoteNode))
	c.established.Fire(ep.env)
	c.startKeepalive()
}
