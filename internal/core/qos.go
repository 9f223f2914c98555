package core

import (
	"fmt"
	"strconv"

	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// The connection scheduler of the protocol thread (IPPS'07 §2.6), with
// multi-tenant quality of service (Config.QoS). Every endpoint runs one
// control and one data service queue PER CLASS and picks the next
// connection by deficit-weighted fair queueing: each visit grants a
// class Weight × qosQuantum bytes of deficit, every transmitted frame is
// charged against it, and the cursor only advances once the deficit is
// spent — so when every class is backlogged, class i holds
// Weight_i/ΣWeight of the transmit slots regardless of how many
// connections (or how large the operations) a tenant throws at the
// endpoint. With Config.QoS empty the endpoint runs one implicit class
// {Weight: 1} with no rate and no quota: its queues are plain FIFOs and
// every connection is served round-robin.
//
// Two admission-side mechanisms bound what a tenant can occupy before
// scheduling even starts. A token bucket (RateBps/Burst) paces the
// class's data-path transmissions — control frames are never throttled;
// an empty bucket parks the class and a refill timer wakes the thread
// when the next frame's worth of tokens has accrued. Submission quotas
// (MaxQueued/MaxQueuedBytes) cap the class's admitted-but-uncompleted
// operations and payload bytes — the kernel-buffer/journal memory it
// pins — with explicit backpressure: fail-fast submissions (Post)
// return ErrThrottled, blocking submissions (Do) wait for room honoring
// Op.Deadline. The congestion window's backlog gate (cc.go) shares the
// same two admission entry points.

// qosQuantum is the deficit granted per unit of class weight per
// scheduler visit, sized to one full-MTU frame so a weight-1 class gets
// at least one large frame per round.
const qosQuantum = 1500

// qosMinCharge floors the deficit charge per transmit slot so runs of
// tiny (or evaporated) frames cannot hold the cursor forever.
const qosMinCharge = 64

// admitPoll is the blocking-admission polling interval: a Do caller
// pushed back by the congestion window or its class quota re-checks at
// this cadence (the same deterministic sleep-poll pattern Conn.Close
// uses to drain).
const admitPoll = 20 * sim.Microsecond

// qosNICQueueBound is the wire-pacing depth: while every NIC already
// has this many frames queued for transmit, the scheduler holds further
// data frames in the class queues. An unbounded NIC FIFO would decide
// service order itself — first-come, first-serialized — and the class
// weights would only ever shape the order frames *enter* it.
const qosNICQueueBound = 2

// qosClass is the endpoint's live state for one traffic class.
type qosClass struct {
	cfg QoSClass // the class's own copy of its configuration

	ctrlQ connFIFO // conns with pending explicit ACK/NACK work
	sendQ connFIFO // conns with transmittable data work

	deficit    int64 // DWFQ byte deficit (data path)
	ctrlBudget int   // weighted-round-robin ctrl frames left this visit

	// Token bucket (cfg.RateBps > 0). tokens may go negative: a frame
	// is admitted whenever tokens > 0 and charged its full size, so an
	// oversized frame simply delays the class longer.
	tokens      int64
	burst       int64
	lastRefill  sim.Time
	refillArmed bool

	// Submission quotas: admitted (issued or posted) but uncompleted.
	pendingOps   int
	pendingBytes int

	// Per-class counters, published by the qos collector at gather time.
	admitted   uint64
	throttled  uint64
	waits      uint64
	deferrals  uint64
	framesSent uint64
	bytesSent  uint64
}

// qosOn reports whether tenant classes are configured at this endpoint
// (Config.QoS non-empty). The scheduler and admission paths do not ask:
// without a table they run the one implicit class.
func (ep *Endpoint) qosOn() bool { return len(ep.cfg.QoS) > 0 }

// initSched builds the per-class scheduler state from Config.QoS, or the
// single implicit class {Weight: 1} when the table is empty.
func (ep *Endpoint) initSched() {
	classes := ep.cfg.QoS
	if len(classes) == 0 {
		classes = []QoSClass{{Weight: 1}}
	}
	ep.qos = make([]qosClass, len(classes))
	for i, cc := range classes {
		q := &ep.qos[i]
		q.cfg = cc
		if cc.RateBps > 0 {
			q.burst = int64(cc.Burst)
			if q.burst <= 0 {
				q.burst = 64 << 10
			}
			q.tokens = q.burst // buckets start full
		}
	}
}

// classIdx is the conn's effective class, clamped into the configured
// table (a conn tagged before the endpoint's table shrank, or tagged
// with QoS off, falls back to the default class instead of indexing out
// of bounds).
func (c *Conn) classIdx() int {
	if c.class < 0 || c.class >= len(c.ep.qos) {
		return 0
	}
	return c.class
}

// opClass is the effective class of one operation: the op's own tag
// when set, else the connection's.
func (c *Conn) opClass(op Op) int {
	if op.Class > 0 && op.Class < len(c.ep.qos) {
		return op.Class
	}
	return c.classIdx()
}

// SetClass tags the connection with a traffic class for QoS scheduling
// and admission (0 is the default class). Tag a connection right after
// Dial/Accept, before issuing traffic: the class of already-queued work
// is not migrated. With QoS off the tag is stored but has no effect.
// Panics on a negative or (with QoS on) out-of-range class, mirroring
// the loud validation of cluster.Config.Validate.
func (c *Conn) SetClass(cls int) {
	if cls < 0 || (c.ep.qosOn() && cls >= len(c.ep.qos)) {
		panic("core: SetClass: class index out of configured QoS range")
	}
	c.class = cls
}

// Class returns the connection's traffic class tag.
func (c *Conn) Class() int { return c.class }

// ---------------------------------------------------------------------
// Admission: congestion backlog and submission quotas.
// ---------------------------------------------------------------------

// qosHasRoom reports whether class cls can admit one more operation of
// size bytes. An empty class always admits, so a single operation
// larger than MaxQueuedBytes is not wedged forever — the byte quota is
// soft by at most one operation.
func (ep *Endpoint) qosHasRoom(cls, size int) bool {
	q := &ep.qos[cls]
	if q.pendingOps == 0 {
		return true
	}
	if q.cfg.MaxQueued > 0 && q.pendingOps >= q.cfg.MaxQueued {
		return false
	}
	if q.cfg.MaxQueuedBytes > 0 && q.pendingBytes+size > q.cfg.MaxQueuedBytes {
		return false
	}
	return true
}

// qosCharge admits one operation into class cls's quota.
func (ep *Endpoint) qosCharge(cls, size int) {
	q := &ep.qos[cls]
	q.pendingOps++
	q.pendingBytes += size
	q.admitted++
	ep.Stats.QosOpsAdmitted++
}

// qosUncharge releases quota held by an admitted operation (completion,
// failure, or a posted descriptor dying unrung). Clamped at zero so an
// accounting mismatch can never wedge admission shut.
func (ep *Endpoint) qosUncharge(cls, n, size int) {
	q := &ep.qos[cls]
	q.pendingOps -= n
	q.pendingBytes -= size
	if q.pendingOps < 0 {
		q.pendingOps = 0
	}
	if q.pendingBytes < 0 {
		q.pendingBytes = 0
	}
}

// qosRelease returns a txOp's admission charge to its class. Exactly
// once per txOp: both completion paths (checkTxOpDone, failTxOp) flip
// completed first and the charge is zeroed here.
func (c *Conn) qosRelease(t *txOp) {
	if t.qosOps == 0 {
		return
	}
	c.ep.qosUncharge(t.qosCls, t.qosOps, t.qosBytes)
	t.qosOps = 0
	t.qosBytes = 0
}

// admitFast is the fail-fast admission gate (Post): a spent congestion
// window with a full backlog behind it, or a class over quota, returns
// ErrThrottled immediately; otherwise the class charge is taken. The
// congestion gate runs first because it takes no charge, so a rejection
// there cannot leak an admission.
func (c *Conn) admitFast(op Op) error {
	ep := c.ep
	if c.ccBacklogged() {
		ep.Stats.CcOpsThrottled++
		ep.recEvent(c.localID, obs.RecCcBlock, int64(c.cwnd), 0)
		return fmt.Errorf("core: congestion window backlog to node %d: %w", c.remoteNode, ErrThrottled)
	}
	cls := c.opClass(op)
	if !ep.qosHasRoom(cls, op.Size) {
		ep.qos[cls].throttled++
		ep.Stats.QosOpsThrottled++
		ep.recEvent(c.localID, obs.RecThrottled, int64(cls), 0)
		return fmt.Errorf("core: class %d to node %d: %w", cls, c.remoteNode, ErrThrottled)
	}
	ep.qosCharge(cls, op.Size)
	return nil
}

// admitDo is the blocking admission gate (Do/DoOn): the caller sleeps
// in a deterministic poll loop until the congestion window is not
// backlogged and its class has room, the connection dies, or
// Op.Deadline passes — overload backpressure instead of unbounded
// queueing. Each gate's wait counter ticks once, the first time that
// gate is the one holding the caller back (the congestion gate is
// checked first); the class charge is taken only on admission.
func (c *Conn) admitDo(p *sim.Proc, op Op) error {
	ep := c.ep
	cls := c.opClass(op)
	ccWaited, qosWaited := false, false
	for {
		ccBlocked := c.ccBacklogged()
		switch {
		case ccBlocked:
			if !ccWaited {
				ccWaited = true
				ep.Stats.CcAdmissionWaits++
				ep.recEvent(c.localID, obs.RecCcBlock, int64(c.cwnd), 1)
			}
		case !ep.qosHasRoom(cls, op.Size):
			if !qosWaited {
				qosWaited = true
				ep.qos[cls].waits++
				ep.Stats.QosAdmissionWaits++
				ep.recEvent(c.localID, obs.RecThrottled, int64(cls), 1)
			}
		default:
			ep.qosCharge(cls, op.Size)
			return nil
		}
		p.Sleep(admitPoll)
		if c.failed {
			return fmt.Errorf("core: operation on failed connection to node %d: %w", c.remoteNode, c.failErr)
		}
		if c.closed {
			return fmt.Errorf("core: operation on closed connection to node %d: %w", c.remoteNode, ErrClosed)
		}
		if op.Deadline > 0 && ep.env.Now() >= op.Deadline {
			// The operation never started (no OpsStarted/OpsFailed): only
			// the deadline-release counter ticks, like any expired waiter.
			ep.Stats.OpDeadlinesExpired++
			if ccBlocked {
				return fmt.Errorf("core: congestion admission to node %d: %w", c.remoteNode, ErrDeadlineExceeded)
			}
			return fmt.Errorf("core: class %d admission to node %d: %w", cls, c.remoteNode, ErrDeadlineExceeded)
		}
	}
}

// ---------------------------------------------------------------------
// Token buckets (rate limits).
// ---------------------------------------------------------------------

// qosRefill lazily credits class cls's bucket for the time elapsed
// since the last refill. lastRefill only advances by the time whole
// tokens account for, so truncation never leaks rate; a full bucket
// resets the anchor so idle time cannot bank extra burst.
func (ep *Endpoint) qosRefill(cls int) {
	q := &ep.qos[cls]
	rate := q.cfg.RateBps
	if rate <= 0 {
		return
	}
	now := ep.env.Now()
	delta := int64(now - q.lastRefill)
	if delta <= 0 {
		return
	}
	if delta > int64(sim.Second) {
		delta = int64(sim.Second) // bucket is capped anyway; avoid overflow
		q.lastRefill = now - sim.Second
	}
	add := delta * rate / int64(sim.Second)
	q.tokens += add
	if q.tokens >= q.burst {
		q.tokens = q.burst
		q.lastRefill = now
		return
	}
	q.lastRefill += sim.Time(add * int64(sim.Second) / rate)
}

// qosRateOK reports whether class cls may transmit a data frame now,
// arming a thread wakeup for when the bucket next goes positive if not.
// The refill timer is a plain (non-daemon) event: a rate-parked class
// still has work, so the simulation must not drain under it.
func (ep *Endpoint) qosRateOK(cls int) bool {
	q := &ep.qos[cls]
	rate := q.cfg.RateBps
	if rate <= 0 {
		return true
	}
	ep.qosRefill(cls)
	if q.tokens > 0 {
		return true
	}
	q.deferrals++
	ep.Stats.QosRateDeferrals++
	if !q.refillArmed {
		q.refillArmed = true
		need := 1 - q.tokens
		d := sim.Time((need*int64(sim.Second) + rate - 1) / rate)
		ep.recEvent(0, obs.RecRateDefer, int64(cls), int64(d))
		ep.env.After(d, func() {
			q.refillArmed = false
			ep.wakeThread()
		})
	}
	return false
}

// ---------------------------------------------------------------------
// Scheduler (DWFQ pops).
// ---------------------------------------------------------------------

// kickConn notes that c may have gained control or data work, enqueues
// it on its class's control and data queues (at most once each; entries
// are re-validated on pop, so a conn whose work evaporated — acked,
// closed — costs one skip instead of an O(conns) rescan) and wakes the
// protocol thread. Every conn-side state change that can create work
// funnels through here via Conn.kick.
func (ep *Endpoint) kickConn(c *Conn) {
	q := &ep.qos[c.classIdx()]
	if !c.inCtrlQ && c.ctrlPending() {
		c.inCtrlQ = true
		q.ctrlQ.push(c)
		ep.recEvent(c.localID, obs.RecSched, 0, int64(q.ctrlQ.size()))
	}
	if !c.inSendQ && c.sendable() {
		c.inSendQ = true
		q.sendQ.push(c)
		ep.recEvent(c.localID, obs.RecSched, 1, int64(q.sendQ.size()))
	}
	ep.wakeThread()
}

// popCtrl picks the next connection with pending control work under
// weighted round-robin across classes: each visit lets a class send up
// to Weight control frames before the cursor moves on. Control frames
// are fixed-size, so frame-denominated deficits are exact, and no token
// bucket applies — acknowledgements repair the window that unblocks
// everyone else.
func (ep *Endpoint) popCtrl() *Conn {
	n := len(ep.qos)
	for visited := 0; visited < n; visited++ {
		q := &ep.qos[ep.ctrlCur]
		if q.ctrlQ.empty() {
			q.ctrlBudget = 0
			ep.ctrlCur = (ep.ctrlCur + 1) % n
			continue
		}
		if q.ctrlBudget <= 0 {
			q.ctrlBudget = q.cfg.Weight
		}
		for q.ctrlBudget > 0 {
			c := q.ctrlQ.pop()
			if c == nil {
				break
			}
			c.inCtrlQ = false
			if c.ctrlPending() {
				q.ctrlBudget--
				if q.ctrlBudget == 0 {
					ep.ctrlCur = (ep.ctrlCur + 1) % n
				}
				return c
			}
		}
		q.ctrlBudget = 0
		ep.ctrlCur = (ep.ctrlCur + 1) % n
	}
	return nil
}

// popSend picks the next connection with transmittable data work by
// deficit-weighted fair queueing: the cursor parks on a class while it
// has deficit and work, empty or rate-parked classes are skipped (their
// deficit resets so idle classes cannot bank service), and each visit
// of a backlogged class grants Weight × qosQuantum fresh deficit. The
// class actually served is recorded in sendCls for the post-send
// charge.
func (ep *Endpoint) popSend() *Conn {
	n := len(ep.qos)
	for visited := 0; visited < n; visited++ {
		cls := ep.sendCur
		q := &ep.qos[cls]
		if q.sendQ.empty() {
			q.deficit = 0
			ep.sendCur = (ep.sendCur + 1) % n
			continue
		}
		if !ep.qosRateOK(cls) {
			q.deficit = 0
			ep.sendCur = (ep.sendCur + 1) % n
			continue
		}
		if q.deficit <= 0 {
			q.deficit += int64(q.cfg.Weight) * qosQuantum
		}
		for {
			c := q.sendQ.pop()
			if c == nil {
				break
			}
			c.inSendQ = false
			if c.sendable() {
				ep.sendCls = cls
				return c
			}
		}
		q.deficit = 0
		ep.sendCur = (ep.sendCur + 1) % n
	}
	return nil
}

// chargeSend debits the served class for one transmitted data frame:
// n payload bytes against the deficit (floored at qosMinCharge so tiny
// frames still consume service) and against the token bucket. A spent
// deficit advances the cursor — the class's turn is over.
func (ep *Endpoint) chargeSend(cls, n int) {
	q := &ep.qos[cls]
	q.framesSent++
	q.bytesSent += uint64(n)
	ep.Stats.QosSchedFrames++
	charge := int64(n)
	if charge < qosMinCharge {
		charge = qosMinCharge
	}
	q.deficit -= charge
	if q.cfg.RateBps > 0 {
		q.tokens -= int64(n)
	}
	if q.deficit <= 0 && ep.sendCur == cls {
		ep.sendCur = (ep.sendCur + 1) % len(ep.qos)
	}
}

// qosSendWork reports whether any class has a connection queued for
// data-path service.
func (ep *Endpoint) qosSendWork() bool {
	for i := range ep.qos {
		if !ep.qos[i].sendQ.empty() {
			return true
		}
	}
	return false
}

// qosNICBusy reports whether every NIC's transmit queue is at or past
// the pacing bound, meaning a dispatched frame would sit behind wire
// backlog the scheduler no longer controls.
func (ep *Endpoint) qosNICBusy() bool {
	for _, n := range ep.nics {
		if n.OutPort().Queued() < qosNICQueueBound {
			return false
		}
	}
	return true
}

// qosArmPace schedules a wake for roughly when the head frame of the
// shallowest NIC queue clears the wire, re-entering threadStep to
// dispatch the next DWFQ pick. The timer is non-daemon — paced frames
// are real pending work and must keep the simulation alive — and
// deduplicated so at most one is outstanding per endpoint.
func (ep *Endpoint) qosArmPace() {
	if ep.qosPaceArmed {
		return
	}
	ep.qosPaceArmed = true
	var d sim.Time
	for _, n := range ep.nics {
		q := n.OutPort().Queued()
		if q == 0 {
			continue
		}
		per := n.OutPort().Backlog() / sim.Time(q)
		if d == 0 || per < d {
			d = per
		}
	}
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	ep.env.After(d, func() {
		ep.qosPaceArmed = false
		ep.wakeThread()
	})
}

// schedDepth returns the queued scheduler entries across all class
// queues: control-service and data-service totals.
func (ep *Endpoint) schedDepth() (ctrl, send int) {
	for i := range ep.qos {
		ctrl += ep.qos[i].ctrlQ.size()
		send += ep.qos[i].sendQ.size()
	}
	return ctrl, send
}

// qosCollector publishes the per-class qos_* series at gather time with
// a tenant label: admission gauges (pending work, bucket level) and the
// throttle/deferral/service counters.
func (ep *Endpoint) qosCollector() obs.Collector {
	nl := obs.NodeLabel(ep.node)
	tenants := make([]obs.Label, len(ep.qos))
	for i := range tenants {
		tenants[i] = obs.Label{Key: "tenant", Value: strconv.Itoa(i)}
	}
	return func(emit func(obs.Sample)) {
		for i := range ep.qos {
			q := &ep.qos[i]
			ls := []obs.Label{nl, tenants[i]}
			g := func(name string, v float64) {
				emit(obs.Sample{Name: name, Labels: ls, Value: v, Type: obs.TypeGauge})
			}
			c := func(name string, v uint64) {
				emit(obs.Sample{Name: name, Labels: ls, Value: float64(v), Type: obs.TypeCounter})
			}
			g("qos_pending_ops", float64(q.pendingOps))
			g("qos_pending_bytes", float64(q.pendingBytes))
			if q.cfg.RateBps > 0 {
				g("qos_tokens", float64(q.tokens))
			}
			c("qos_admitted_total", q.admitted)
			c("qos_throttled_total", q.throttled)
			c("qos_admission_waits_total", q.waits)
			c("qos_rate_deferrals_total", q.deferrals)
			c("qos_frames_sent_total", q.framesSent)
			c("qos_bytes_sent_total", q.bytesSent)
		}
	}
}
