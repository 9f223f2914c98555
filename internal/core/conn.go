package core

import (
	"fmt"
	"sort"

	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
	"multiedge/internal/trace"
)

// Conn is one end of a MultiEdge point-to-point connection. All
// communication is fully asynchronous remote memory access (IPPS'07
// §2.2): RDMAOperation initiates a remote read or write and returns a
// Handle; completion and remote notifications are delivered through the
// simulation's signal and mailbox primitives.
//
// Sequence numbers are 32-bit and assumed not to wrap within one
// simulation (2^32 frames ≈ 6 TB of traffic, far above any experiment).
type Conn struct {
	ep         *Endpoint
	localID    uint32
	remoteID   uint32
	remoteNode int
	links      int

	established sim.Signal
	connTimer   *sim.Timer
	closed      bool
	closedSig   sim.Signal
	closeTimer  *sim.Timer

	// Scheduler membership: whether the conn is currently queued for
	// control/data service at the endpoint.
	inCtrlQ bool
	inSendQ bool

	// Traffic class (Config.QoS): which tenant's scheduler queues and
	// quotas this conn belongs to. See SetClass.
	class int

	// Failure handling: adaptive retransmission timing (Config.RTOMax)
	// and peer-death detection (Config.MaxRetries / DeadInterval /
	// HeartbeatInterval).
	failed       bool  // peer declared dead; failErr says why
	failErr      error // wraps ErrPeerDead
	srtt         sim.Time
	rttvar       sim.Time
	rto          sim.Time // clamped SRTT+4*RTTVAR estimate (armed in adaptive mode)
	expiries     int      // consecutive RTO expiries without ack progress
	lastProgress sim.Time // last ack advance, or first transmit of a fresh burst
	lastHeard    sim.Time // last frame received on this conn
	lastTx       sim.Time // last frame transmitted on this conn
	hbTimer      timer
	readGuard    timer // daemon liveness check while read replies are pending
	railProbe    timer // per-rail RTT probe tick (multi-rail + CC only)
	railProbeRR  int   // next rail to probe (rails are probed staggered)

	// Transmit side.
	nextOpID     uint64
	txOps        []*txOp // FIFO: head is being fragmented
	sndUna       uint32  // oldest unacknowledged sequence number
	sndNxt       uint32  // next sequence number to assign
	retrans      *seqRing[*txFrame]
	retransQ     []uint32 // sequence numbers queued for retransmission
	txFenced     []uint64 // sorted ids of forward-fenced ops not yet fully acked
	rr           int      // round-robin link cursor
	rtoTimer     timer
	pendingReads map[uint64]*Handle

	// Transmit side: link-failure handling. A link accumulating repair
	// events (NACKed or timed-out frames last sent on it) without any
	// acknowledged frame in between is declared dead and excluded from
	// round-robin striping; a probe frame is risked on it periodically
	// and an acknowledgement of any frame sent on it re-admits it.
	linkFails  []int      // repair events since the last acked frame, per link
	linkDead   []bool     // links currently excluded from striping
	linkDeadAt []sim.Time // when each link was last declared dead
	deadLinks  int        // count of true entries in linkDead
	probeTimer *sim.Timer

	// Receive side: ARQ. The per-seq state lives in window-sized rings
	// (see seqring.go): accepted-but-unacked dedupe, gap timestamps and
	// in-flight repair marks all have live spans bounded by the sender's
	// window, so none of them may grow with connection lifetime.
	rcvNxt       uint32 // cumulative acknowledgement point
	rcvSeen      *seqRing[struct{}]
	maxSeenPlus1 uint32 // 1 + highest sequence number accepted
	missingSince *seqRing[sim.Time]
	nackedAt     *seqRing[sim.Time] // last NACK per missing seq (repair in flight)
	lastNack     sim.Time
	// linkHigh[l] is 1 + the highest data sequence number that arrived
	// on link l (0 = nothing yet). Because each physical path preserves
	// FIFO order, a missing sequence number s can only have been LOST —
	// rather than queued behind other frames on its path — once every
	// link has delivered some frame beyond s. This makes loss detection
	// immune to cross-link queue skew (deep transmit queues on one rail
	// delay its frames by hundreds of microseconds without any loss).
	linkHigh []uint32
	// linkLast[l] is the arrival time of the most recent frame on link
	// l. A link silent for cfg.LinkStaleAge while gaps exist stops
	// vetoing loss detection (see Config.LinkStaleAge).
	linkLast  []sim.Time
	unackedRx int
	ackTimer  timer
	nackTimer timer
	ackDue    bool
	nackDue   []uint32
	// nackScratch is the reused NACK-payload encode buffer: sendCtrl
	// used to allocate a fresh payload per NACK (frame.EncodeNackPayload),
	// which under sustained loss was an allocation per repair round.
	nackScratch []byte

	// Long-lived timer callbacks, built once per conn so the hot timer
	// re-arms (RTO on every transmit, delayed-ACK, NACK age, probe)
	// schedule no per-arm closures; heap timers additionally reuse their
	// Timer handle via sim.Env.Rearm (see Endpoint.rearmTimer).
	onRTOFn   func()
	ackFn     func()
	nackFn    func()
	probeFn   func()
	cqFlushFn func() // drains cqStage behind an in-flight WaitCQ wake
	rdGuardFn func() // checkReadLiveness, built once (method values allocate)

	// Hot-path object recycling (DESIGN.md §13): per-frame and per-op
	// records whose lifetimes end inside the protocol thread are kept on
	// freelists instead of churning the heap. Fields are reset at reuse,
	// never at free — failure paths (failConn) legitimately visit an op
	// through both its window frames and the txOps queue, and the
	// completed-flag guard must survive the first visit.
	tfFree []*txFrame
	rxFree []*rxOp

	// Doorbell-path scratch (see RingOn/enqueueMulti): the batch
	// snapshot-pointer slices and the MultiData sub-op encode slice are
	// reused across rings, so a steady SQ loop allocates nothing beyond
	// the per-op handles.
	sqScratch  []Op
	ringData   [][]byte
	ringBufs   []*frame.Buf
	subScratch []frame.SubOp

	// Receive side: ordering and delivery.
	applyNxt  uint32 // strict mode: next sequence number to apply
	strictBuf *seqRing[heldFrame]
	rxOps     map[uint64]*rxOp
	frontier  uint64   // all receive ops with id < frontier are complete
	fenced    []uint64 // sorted ids of incomplete forward-fenced ops
	held      []heldFrame
	notifyQ   sim.Mailbox[Notification]

	// Submission/completion queues (see op.go): descriptors posted but
	// not yet issued by a doorbell, and completions awaiting a poll.
	sq      []Op
	cq      sim.Mailbox[Completion]
	cqStage []Completion // records staged behind an in-flight WaitCQ wake
	cqFlush bool         // a UserWake flush of cqStage is scheduled

	// Recovery (Config.Reconnect): connection incarnations and the
	// supervised reconnect state machine (see reconnect.go).
	incarnation   uint16     // live epoch stamped into every frame (0 = feature off)
	pendingIncarn uint16     // epoch the dialer's redial is negotiating
	dialer        bool       // this side ran Dial and owns redialing
	reconnecting  bool       // parked: old epoch condemned, handshake pending
	reconnAttempt int        // redial attempts this outage (dialer side)
	reconnTotal   int        // reconnects survived over the conn's lifetime
	reconnSince   sim.Time   // when the outage was detected (0 = none)
	reconnTimer   *sim.Timer // dialer-side redial backoff
	reconnGiveUp  timer      // passive-side bounded wait (daemon)
	reconnSpan    *obs.Span  // outage→recovered causal span

	bytesAcked uint64 // payload bytes acknowledged end-to-end, lifetime

	// Per-rail RTT split: the conn-level estimator above blends every
	// rail into one SRTT, which hides a slow rail behind a fast one.
	// These track each rail separately — same Jacobson/Karels update,
	// same Karn filter (never-retransmitted frames only) — purely as
	// congestion signals and health gauges. The conn-level RTO is still
	// driven by the blended estimator, so retransmission timing (and the
	// paper goldens) are unchanged.
	railSrtt   []sim.Time // per-link smoothed RTT (0 = no sample yet)
	railRttvar []sim.Time // per-link RTT variance
	// railNewest/railHave are per-ack-walk scratch picking each rail's
	// newest non-retransmitted sample (the per-rail counterpart of
	// handleAck's "newest" Karn tracking); cleared after every walk.
	// With the congestion controller on, multi-rail conns measure each
	// rail with dedicated probe/echo frames instead (see armRailProbes):
	// a cumulative ack only advances once the slowest rail's interleaved
	// frames arrive, so ack-walk samples collapse every rail onto the
	// slowest one's round trip.
	railNewest []sim.Time
	railHave   []bool

	// Congestion control (Config.CongestionControl). All state is inert
	// when the feature is off; see cc.go for the AIMD rules.
	cwnd        int    // congestion window, frames
	ccAckCredit int    // acked frames banked toward the next additive increase
	ccRecover   uint32 // no further cut until sndUna reaches this (one cut per flight)
	ccRetxSent  int    // retransmissions since the last ack progress or RTO
	ccEcnRx     int    // receiver side: marked frames awaiting an ECN echo
	railOut     []int  // per-link frames transmitted there and not yet acked
}

// txOp is an operation on the send side: the kernel-buffer snapshot of
// its data plus fragmentation and acknowledgement progress.
type txOp struct {
	id     uint64
	opType frame.OpType
	flags  frame.OpFlags
	remote uint64
	local  uint64
	data   []byte
	// dataBuf, when non-nil, is the pooled buffer backing data (small
	// write/reply snapshots). It is owned by the txOp until the exactly-
	// once release where completion or failure drops data; replay
	// (reconnect.go) touches only incomplete ops, so the snapshot is
	// still owned whenever retransmission needs it.
	dataBuf   *frame.Buf
	total     uint32
	sent      uint32
	sentAll   bool
	unacked   int
	completed bool
	probe     bool // internal dead-link probe, not a user operation
	h         *Handle
	span      *obs.Span  // causal span (nil unless span recording is on)
	subs      []multiSub // coalesced sub-ops (nil = ordinary single op)

	// Admission charge held against a traffic class (the implicit one
	// when Config.QoS is empty): released exactly once when the op
	// completes or fails. qosOps is 0 when no charge is held (probes,
	// receiver-side serves, replayed read re-syntheses).
	qosCls   int
	qosOps   int
	qosBytes int
}

// multiSub is the send-side record of one coalesced sub-op inside a
// MultiData txOp: completion, CQ fan-out and span bookkeeping.
type multiSub struct {
	id   uint64
	op   Op
	span *obs.Span
}

// forEachSpan visits the operation's span — or every sub-op span of a
// coalesced batch — for transmit/ack/retransmit event recording.
func (op *txOp) forEachSpan(f func(*obs.Span)) {
	if op.span != nil {
		f(op.span)
	}
	for i := range op.subs {
		if op.subs[i].span != nil {
			f(op.subs[i].span)
		}
	}
}

// txFrame is one transmitted-but-unacknowledged frame.
type txFrame struct {
	op      *txOp
	seq     uint32
	offset  uint32
	payload []byte
	inQ     bool     // queued for retransmission
	link    int      // link of the most recent transmission (failure attribution)
	txAt    sim.Time // time of the most recent transmission
	retx    bool     // ever retransmitted: its ack is ambiguous (Karn), no RTT sample
}

// rxOp tracks one operation at the receive side for ordering, fences,
// completion and notification.
type rxOp struct {
	id       uint64
	opType   frame.OpType
	flags    frame.OpFlags
	total    uint32
	applied  uint32
	remote   uint64 // destination address of the operation
	local    uint64 // ReadReply: the requester's read operation id
	complete bool
	isFenced bool
}

// heldFrame is a frame buffered at the receiver awaiting ordering.
type heldFrame struct {
	h       frame.Header
	payload []byte
	heldAt  sim.Time // when buffering began (hold-duration histogram)
}

// Notification is delivered to the receiving process when a remote write
// flagged with frame.Notify has been performed (IPPS'07 §2.2).
type Notification struct {
	From int    // peer node id
	OpID uint64 // the writer's operation id
	Addr uint64 // destination address that was written
	Len  int    // bytes written
}

// Handle tracks the progress of one issued operation (IPPS'07 §2.2:
// "each operation can also, when initiated, return a handle ... the
// programmer can query the progress of each issued operation").
type Handle struct {
	c       *Conn
	opID    uint64
	size    int
	acked   int // bytes acknowledged so far (writes) or received (reads)
	done    sim.Signal
	cq      bool // issued via the SQ: completion also fans out to the CQ
	op      Op   // the posted descriptor (SQ path only)
	err     error
	dlTimer *sim.Timer // Op.Deadline expiry (nil without a deadline)
	// t is the operation's send-side record. The handle is user-held and
	// so can never be pooled; embedding the txOp in it makes the two
	// records one allocation — the single steady-state alloc per op —
	// and sidesteps every reuse-aliasing hazard a txOp freelist would
	// have (completed ops linger in txOps until curOp pops them).
	t txOp
}

// Progress returns how many of the operation's bytes have been
// acknowledged end-to-end (writes) or landed locally (reads), and the
// operation's total size.
func (h *Handle) Progress() (done, total int) { return h.acked, h.size }

// BytesAcked returns the operation's acknowledged-byte high-water mark.
// For an operation that failed — deadline expiry, peer death, exhausted
// reconnects — this is how far the transfer provably got, so a caller
// re-issuing the work can resume from this offset instead of restarting
// from byte 0. (A replayed operation resets the mark before re-issuing,
// so a successful recovery still reports exactly Size on completion.)
func (h *Handle) BytesAcked() int { return h.acked }

// Wait blocks the process until the operation completes: for writes,
// until every frame is acknowledged end-to-end; for reads, until the
// reply data has been written to local memory.
func (h *Handle) Wait(p *sim.Proc) { p.Wait(&h.done) }

// Test polls completion without blocking.
func (h *Handle) Test() bool { return h.done.Fired() }

// Done exposes the completion signal for event-driven waiting.
func (h *Handle) Done() *sim.Signal { return &h.done }

// OpID returns the operation's connection-local id.
func (h *Handle) OpID() uint64 { return h.opID }

// Err returns the operation's terminal error: nil while in flight or
// after success; wrapping ErrPeerDead when the connection failed with
// the operation pending, or ErrDeadlineExceeded when Op.Deadline
// released the waiter first. Check after Wait returns.
func (h *Handle) Err() error { return h.err }

func newConn(ep *Endpoint, localID uint32, remoteNode, links int) *Conn {
	c := &Conn{
		ep: ep, localID: localID, remoteNode: remoteNode, links: links,
		rto:          ep.cfg.RTO, // adaptive mode starts from the paper's fixed value
		retrans:      newSeqRing[*txFrame](ep.cfg.Window),
		pendingReads: make(map[uint64]*Handle),
		rcvSeen:      newSeqRing[struct{}](ep.cfg.Window),
		missingSince: newSeqRing[sim.Time](ep.cfg.Window),
		nackedAt:     newSeqRing[sim.Time](ep.cfg.Window),
		linkHigh:     make([]uint32, links),
		linkLast:     make([]sim.Time, links),
		linkFails:    make([]int, links),
		linkDead:     make([]bool, links),
		linkDeadAt:   make([]sim.Time, links),
		strictBuf:    newSeqRing[heldFrame](ep.cfg.Window),
		rxOps:        make(map[uint64]*rxOp),
		railSrtt:     make([]sim.Time, links),
		railRttvar:   make([]sim.Time, links),
		railNewest:   make([]sim.Time, links),
		railHave:     make([]bool, links),
	}
	if ep.cfg.ccOn() {
		c.cwnd = ep.cfg.ccInit()
		c.railOut = make([]int, links)
	}
	c.onRTOFn = c.onRTO
	c.ackFn = func() {
		if !c.closed && c.unackedRx > 0 {
			c.ackDue = true
			c.kick()
		}
	}
	c.nackFn = func() {
		if c.closed || c.missingSince.size() == 0 {
			return
		}
		c.queueNack(true)
		c.armNackTimer()
	}
	c.probeFn = func() {
		if c.closed || c.deadLinks == 0 {
			return
		}
		for li := 0; li < c.links; li++ {
			if c.linkDead[li] {
				c.sendProbe(li)
			}
		}
	}
	c.cqFlushFn = func() {
		c.cqFlush = false
		stage := c.cqStage
		c.cqStage = nil
		for _, s := range stage {
			c.cq.Send(c.ep.env, s)
		}
		// Hand the drained backing array back for the next staging run
		// (Send only schedules wakes, so nothing re-staged mid-loop).
		if c.cqStage == nil {
			c.cqStage = stage[:0]
		}
	}
	return c
}

// newTxFrame pulls a transmit-frame record from the conn's freelist
// (frames die in handleAck or failConn, strictly inside the protocol
// thread, so recycling is race-free by construction).
func (c *Conn) newTxFrame(op *txOp, seq, offset uint32) *txFrame {
	if n := len(c.tfFree); n > 0 {
		tf := c.tfFree[n-1]
		c.tfFree = c.tfFree[:n-1]
		*tf = txFrame{op: op, seq: seq, offset: offset}
		return tf
	}
	return &txFrame{op: op, seq: seq, offset: offset}
}

// freeTxFrame recycles tf. Fields are reset at reuse, not here: the
// caller may still be reading them (failConn frees mid-walk), and no
// reuse can interleave before the protocol-thread step returns.
func (c *Conn) freeTxFrame(tf *txFrame) {
	c.tfFree = append(c.tfFree, tf)
}

// RemoteNode returns the peer's node id.
func (c *Conn) RemoteNode() int { return c.remoteNode }

// Links returns how many physical links the connection stripes over.
func (c *Conn) Links() int { return c.links }

// Endpoint returns the owning endpoint.
func (c *Conn) Endpoint() *Endpoint { return c.ep }

// Established reports whether the connection handshake has completed.
func (c *Conn) Established() bool { return c.established.Fired() }

// Inflight returns the number of unacknowledged frames outstanding
// (always ≤ the configured window).
func (c *Conn) Inflight() int { return c.inflight() }

// Closed reports whether the connection has been torn down (locally
// initiated or by the peer).
func (c *Conn) Closed() bool { return c.closed }

// Failed reports whether the connection transitioned to the Failed
// state (peer declared dead or the conn reset by the peer). A failed
// connection is also Closed; talking to the peer again requires a fresh
// Dial/Accept pair.
func (c *Conn) Failed() bool { return c.failed }

// Err returns why the connection failed (wrapping ErrPeerDead), or nil
// while it is healthy or merely closed.
func (c *Conn) Err() error { return c.failErr }

// Reconnecting reports whether the connection is parked awaiting a
// supervised reconnect (Config.Reconnect): the old epoch is condemned,
// nothing is sent or accepted, and operations issued now queue until
// the rebirth replays them.
func (c *Conn) Reconnecting() bool { return c.reconnecting }

// Reconnects returns how many supervised reconnects the connection has
// survived over its lifetime.
func (c *Conn) Reconnects() int { return c.reconnTotal }

// Incarnation returns the connection's live epoch — the value stamped
// into every frame it sends. Zero means incarnations are unused
// (Config.Reconnect off).
func (c *Conn) Incarnation() uint16 { return c.incarnation }

// RTO returns the retransmission timeout the next expiry timer arms:
// the fixed Config.RTO, or in adaptive mode the Jacobson estimate with
// the current backoff applied.
func (c *Conn) RTO() sim.Time { return c.currentRTO() }

// Close tears the connection down gracefully: it blocks until every
// locally issued operation has completed, then exchanges a close
// handshake with the peer (retried under loss). Initiating operations
// on a closed connection panics; late frames for it are discarded.
//
// Close is bounded: if the peer dies mid-drain the failure machinery
// fails the outstanding operations and Close returns, and a close
// handshake the peer never acknowledges gives up after the MaxRetries
// budget instead of retrying forever.
func (c *Conn) Close(p *sim.Proc) {
	if c.closed {
		return
	}
	// Drain: all issued operations fully acknowledged — or the peer
	// declared dead, which fails them all and unblocks the closer.
	for !c.failed && (len(c.txOps) > 0 || c.inflight() > 0 || len(c.pendingReads) > 0) {
		p.Sleep(50 * sim.Microsecond)
	}
	if c.failed {
		return // nothing left to hand-shake with; failConn cleaned up
	}
	c.closed = true
	c.stopTimers()
	c.ep.recEvent(c.localID, obs.RecClosed, 0, 0)
	ep := c.ep
	attempts := 0
	var retry func()
	send := func() {
		h := frame.Header{Type: frame.TypeConnClose, ConnID: c.remoteID, OpID: uint64(c.localID),
			Incarnation: c.incarnation}
		dst := frame.NewAddr(c.remoteNode, 0)
		buf := frame.MustEncode(dst, ep.nics[0].Addr(), &h, nil)
		ep.nics[0].Transmit(&phys.Frame{Buf: buf, Dst: dst, Src: ep.nics[0].Addr()})
	}
	retry = func() {
		if c.closedSig.Fired() {
			return
		}
		if mr := ep.cfg.MaxRetries; mr > 0 && attempts > mr {
			// The peer never acknowledged the close: give up unilaterally
			// rather than retrying forever against a dead host.
			ep.removeConn(c)
			c.closedSig.Fire(ep.env)
			return
		}
		attempts++
		send()
		c.closeTimer = ep.env.After(ep.cfg.ConnRetry, retry)
	}
	ep.env.After(0, retry)
	p.Wait(&c.closedSig)
}

// stopTimers cancels every protocol timer the connection owns and clears
// the pending-ctrl state that would arm new ones. It runs on every exit
// from the live state — local Close, peer-initiated close, and failConn —
// so a torn-down conn can never fire a callback or emit a frame again,
// and no stray event keeps the simulation alive. closeTimer is exempt:
// the close handshake itself still needs it (failConn stops it too, via
// stopCloseTimer).
func (c *Conn) stopTimers() {
	for _, t := range []interface{ Stop() bool }{
		c.ackTimer, c.nackTimer, c.rtoTimer, c.hbTimer,
		c.railProbe, c.probeTimer, c.readGuard, c.connTimer,
		c.reconnTimer, c.reconnGiveUp,
	} {
		if t != nil {
			t.Stop()
		}
	}
	c.ackDue = false
	c.nackDue = nil
	// Gap-tracking state would re-arm the NACK machinery if any late
	// frame slipped through; drop it with the timers. Dropping the
	// in-flight repair timestamps (nackedAt) wholesale is intentional,
	// not a leak of live repair state: stopTimers only runs on exits
	// from the live state — local Close, peer close, failConn, and the
	// reconnect rebirth — after which the old sequence space is dead
	// (a rebirth starts a fresh epoch with fresh sequence numbers), so
	// no timestamp keyed by an old seq can ever be consulted again.
	// TestStopTimersDropsGapState pins this contract.
	c.missingSince.clear()
	c.nackedAt.clear()
}

func (c *Conn) stopCloseTimer() {
	if c.closeTimer != nil {
		c.closeTimer.Stop()
	}
}

// kick routes every "this conn may have work now" notification to the
// endpoint, which enqueues the conn for O(1) scheduler service.
func (c *Conn) kick() { c.ep.kickConn(c) }

// ---------------------------------------------------------------------
// Operation initiation (the paper's RDMA_operation primitive).
//
// The positional RDMAOperation/RDMAOn wrappers are gone: the Op-struct
// surface (Do, DoOn, MustDo, Post, Ring — see op.go) is the only issue
// path. parity_test.go pins its behaviour against the frozen golden
// captured while the wrappers still existed.
// ---------------------------------------------------------------------

// frameSpan resolves the span a received frame belongs to. Data and
// read-request frames carry the initiator's operation id and arrive on
// a connection whose remoteID is the initiator's local connection id;
// read-reply frames carry the requester's read-op id in Local and the
// requester is this node.
func (c *Conn) frameSpan(opType frame.OpType, opID, local uint64) *obs.Span {
	if !c.ep.obs.SpansEnabled() {
		return nil
	}
	if opType == frame.OpReadReply {
		return c.ep.obs.FindSpan(obs.SpanID{Node: c.ep.node, Conn: c.localID, Op: local})
	}
	return c.ep.obs.FindSpan(obs.SpanID{Node: c.remoteNode, Conn: c.remoteID, Op: opID})
}

// WaitNotify blocks until a notification arrives on the connection.
// When the connection fails it never blocks forever: queued
// notifications drain first, then a poison Notification with Len < 0 is
// returned (and peer death is also observable via Failed/Err).
func (c *Conn) WaitNotify(p *sim.Proc) Notification {
	if c.failed {
		if n, ok := c.notifyQ.TryRecv(); ok {
			return n
		}
		return Notification{From: c.remoteNode, Len: -1}
	}
	return c.notifyQ.Recv(p)
}

// PollNotify returns a pending notification without blocking.
func (c *Conn) PollNotify() (Notification, bool) { return c.notifyQ.TryRecv() }

// ---------------------------------------------------------------------
// Transmit path.
// ---------------------------------------------------------------------

func (c *Conn) inflight() int { return int(c.sndNxt - c.sndUna) }

// maxFramePayload returns the per-frame payload limit: the full MTU
// payload normally, or an even slice per link in the byte-striping
// baseline.
func (c *Conn) maxFramePayload() int {
	if c.ep.cfg.ByteStripe && c.links > 1 {
		return frame.MaxPayload / c.links
	}
	return frame.MaxPayload
}

// curOp returns the operation currently being fragmented; nil if there
// is none, or if the head operation is stalled behind an unacknowledged
// forward-fenced operation (sender side of §2.5's forward fence).
func (c *Conn) curOp() *txOp {
	if n := 0; len(c.txOps) > 0 && c.txOps[0].sentAll {
		for n < len(c.txOps) && c.txOps[n].sentAll {
			n++
		}
		// Compact down in place instead of re-slicing the head off:
		// re-slicing walks the queue off its backing array, so a
		// long-lived pipelined conn reallocates it on every op.
		m := copy(c.txOps, c.txOps[n:])
		for i := m; i < len(c.txOps); i++ {
			c.txOps[i] = nil
		}
		c.txOps = c.txOps[:m]
	}
	if len(c.txOps) == 0 {
		return nil
	}
	head := c.txOps[0]
	if len(c.txFenced) > 0 && c.txFenced[0] < head.id {
		return nil
	}
	return head
}

// sendable reports whether the connection has data-path work for the
// protocol thread.
func (c *Conn) sendable() bool {
	if c.closed || c.reconnecting {
		return false
	}
	if len(c.retransQ) > 0 {
		// Queued repairs respect the congestion window too: pacing out
		// more than cwnd retransmissions per round trip would amplify
		// exactly the congestion that caused the loss. A blocked repair
		// also holds back fresh data — recovery goes first — and the
		// budget re-opens on ack progress or the next RTO, so a stalled
		// recovery can never deadlock (see cc.go).
		return c.ccRetxOK()
	}
	return c.inflight() < c.effWindow() && c.curOp() != nil
}

// ctrlPending reports whether an explicit ACK or NACK is due.
func (c *Conn) ctrlPending() bool {
	return !c.closed && !c.reconnecting && (c.ackDue || len(c.nackDue) > 0)
}

// sendNextDataFrame emits one data frame: a queued retransmission first,
// otherwise the next fragment of the current operation. It returns the
// payload bytes handed to the wire (0 when the work evaporated), which
// the scheduler charges against the served class.
func (c *Conn) sendNextDataFrame() int {
	for len(c.retransQ) > 0 {
		if !c.ccRetxOK() {
			// Over the per-round-trip retransmission budget: leave the
			// queue intact and emit nothing. sendable() agrees, so the
			// scheduler parks the conn until an ack or RTO re-opens it.
			c.ep.Stats.CcRetxDeferred++
			return 0
		}
		seq := c.retransQ[0]
		// Copy-shift keeps the backing array; the queue is short (loss
		// bursts), so the shift is cheaper than steady-state re-allocs.
		c.retransQ = c.retransQ[:copy(c.retransQ, c.retransQ[1:])]
		tf, ok := c.retrans.get(seq)
		if !ok {
			continue // acknowledged since it was queued
		}
		tf.inQ = false
		c.transmit(tf, true)
		if len(c.retransQ) > 0 && !c.ccRetxOK() {
			// That was the last repair slot this round trip: the rest
			// of the queue waits until ack progress or the next RTO
			// re-opens the budget (sendable() parks the conn, so the
			// exhausted branch above never observes the deferral).
			c.ep.Stats.CcRetxDeferred++
		}
		return len(tf.payload)
	}
	op := c.curOp()
	if op == nil || c.inflight() >= c.effWindow() {
		return 0 // conditions changed since sendable()
	}
	pay := uint32(c.maxFramePayload())
	if rem := op.total - op.sent; rem < pay {
		pay = rem
	}
	tf := c.newTxFrame(op, c.sndNxt, op.sent)
	if op.opType == frame.OpRead {
		// A read request is a single header-only frame describing the
		// whole transfer; the data flows back as a ReadReply operation.
		pay = op.total
	} else if pay > 0 {
		tf.payload = op.data[op.sent : op.sent+pay]
	}
	c.sndNxt++
	op.sent += pay
	if op.sent >= op.total {
		op.sentAll = true
	}
	op.unacked++
	c.retrans.put(tf.seq, tf)
	c.ep.Stats.DataFramesSent++
	c.ep.Stats.DataBytesSent += uint64(len(tf.payload))
	c.transmit(tf, false)
	return len(tf.payload)
}

// transmit encodes and hands one frame to the next link in round-robin
// order (IPPS'07 §2.5), with the current cumulative acknowledgement
// piggy-backed.
func (c *Conn) transmit(tf *txFrame, isRetrans bool) {
	op := tf.op
	typ := frame.TypeData
	switch {
	case op.opType == frame.OpRead:
		typ = frame.TypeReadReq
	case op.subs != nil:
		typ = frame.TypeMultiData
	}
	h := frame.Header{
		Type: typ, ConnID: c.remoteID,
		Seq: tf.seq, Ack: c.rcvNxt, HasAck: true,
		OpID: op.id, OpType: op.opType, OpFlags: op.flags,
		Remote: op.remote, Local: op.local,
		Offset: tf.offset, Total: op.total,
	}
	if isRetrans {
		tf.retx = true
		c.ep.Stats.Retransmissions++
		if c.ep.cfg.ccOn() {
			c.ccRetxSent++
		}
		c.ep.trc(c.localID, trace.TxRetransmit, tf.seq, len(tf.payload))
	} else {
		if c.inflight() == 1 {
			// Sole outstanding frame: a fresh burst after an idle gap.
			// Progress tracking (DeadInterval) anchors here, not at the
			// last acknowledgement of the previous burst.
			c.lastProgress = c.ep.env.Now()
		}
		c.ep.trc(c.localID, trace.TxData, tf.seq, len(tf.payload))
	}
	li := -1 // normal round-robin pick
	if tf.op.probe && !isRetrans {
		li = tf.link // the probe's first copy is forced onto the dead link
	}
	prev := tf.link
	tf.link = c.sendFrameOn(&h, tf.payload, li)
	if c.railOut != nil {
		if isRetrans {
			// The frame's outstanding charge moves with it to its new rail.
			c.railDec(prev)
		}
		c.railOut[tf.link]++
	}
	tf.txAt = c.ep.env.Now()
	op.forEachSpan(func(sp *obs.Span) {
		if isRetrans {
			sp.Event(tf.txAt, obs.EvFrameRetx, c.ep.node, tf.link, tf.seq, len(tf.payload))
		} else {
			if tf.offset == 0 {
				// First transmission of the op's first frame: the protocol
				// CPU has dequeued the operation. The gap from span start
				// is initiation + send-queue + CPU contention time.
				sp.Event(tf.txAt, obs.EvProtoDequeue, c.ep.node, -1, tf.seq, 0)
			}
			sp.Event(tf.txAt, obs.EvFrameTx, c.ep.node, tf.link, tf.seq, len(tf.payload))
		}
	})
	// Only user traffic keeps probing alive: a probe transmission must
	// not re-arm the timer, or an idle connection with a dead link would
	// sustain a probe → loss → RTO-repair → probe loop forever.
	if c.deadLinks > 0 && !tf.op.probe {
		c.armProbeTimer()
	}
	c.armRTO()
}

// pickLink chooses the transmit link among those not currently declared
// dead (all links when every one is dead — the last survivors must keep
// carrying traffic): round-robin by default (the paper's §2.5), or the
// least-backlog link under Config.AdaptiveStripe.
func (c *Conn) pickLink() int {
	if c.railOut != nil && c.links > 1 {
		// Congestion-weighted striping (Config.CongestionControl): shift
		// load away from rails that are slow end-to-end, not just ones
		// with a deep local queue. See Conn.ccPickLink.
		if li := c.ccPickLink(); li >= 0 {
			return li
		}
	}
	if c.ep.cfg.AdaptiveStripe {
		best := -1
		var bestBacklog sim.Time
		for i := 0; i < c.links; i++ {
			li := (c.rr + i) % c.links
			if c.deadLinks > 0 && c.deadLinks < c.links && c.linkDead[li] {
				continue
			}
			bl := c.ep.nics[li].OutPort().Backlog()
			if best < 0 || bl < bestBacklog {
				best, bestBacklog = li, bl
			}
		}
		if best >= 0 {
			c.rr = (best + 1) % c.links
			return best
		}
	}
	for i := 0; i < c.links; i++ {
		li := c.rr
		c.rr = (c.rr + 1) % c.links
		if c.deadLinks == 0 || c.deadLinks >= c.links || !c.linkDead[li] {
			return li
		}
	}
	return c.rr // unreachable: some link is always eligible
}

// sendFrame encodes a payload-less control frame (ACK/NACK) and
// transmits it on a link that is both not declared dead and fresh on
// the receive side: control frames are never acknowledged, so the
// sender-side detector cannot protect them — but a cable cut kills both
// directions, so a rail that stopped delivering to us has most likely
// also stopped carrying our control traffic. Losing ACKs merely delays
// the sender; losing NACKs doubles every repair round-trip. Any frame
// that leaves carries our cumulative ACK, so delayed-ACK state resets
// (piggy-backing, §2.4).
func (c *Conn) sendFrame(h *frame.Header, payload []byte) {
	if stale := c.ep.cfg.LinkStaleAge; stale > 0 && c.links > 1 {
		now := c.ep.env.Now()
		for i := 0; i < c.links; i++ {
			li := c.rr
			c.rr = (c.rr + 1) % c.links
			if !c.linkDead[li] && now-c.linkLast[li] <= stale {
				c.sendFrameOn(h, payload, li)
				return
			}
		}
		// No rail is receive-fresh (idle period or total outage): fall
		// through to the plain round-robin pick.
	}
	c.sendFrameOn(h, payload, -1)
}

// sendFrameOn is sendFrame with an optional forced link (-1 = pick),
// returning the link used.
func (c *Conn) sendFrameOn(h *frame.Header, payload []byte, li int) int {
	if li < 0 {
		li = c.pickLink()
	}
	// Every frame carries the connection's live epoch; the peer fences
	// frames whose incarnation does not match (Config.Reconnect). Zero —
	// the historical pad bytes — when the feature is off.
	h.Incarnation = c.incarnation
	if h.HasAck && c.ccEcnRx > 0 {
		// Echo the congestion marks seen since the last ack-bearing frame
		// back to the data sender (the out-of-band wire mark becomes a
		// CRC-covered header bit). Echoing is unconditional — marks only
		// exist when a switch threshold is armed — and it is the sender's
		// *reaction* that Config.CongestionControl gates.
		h.EcnEcho = true
		c.ep.Stats.EcnEchoesSent++
		c.ep.recEvent(c.localID, obs.RecEcnEcho, int64(c.ccEcnRx), 0)
		c.ccEcnRx = 0
	}
	nic := c.ep.nics[li]
	dst := frame.NewAddr(c.remoteNode, li)
	// Encode into a pooled wire buffer: the frame owns it from here and
	// exactly one death point — NIC/port drop, corruption replacement,
	// or receiver dispatch — releases it (see phys.Frame.Release).
	// Retransmissions re-encode from tf.payload into a fresh buffer, so
	// the in-flight copy is never aliased by sender-side state.
	pb := frame.GetBuf()
	buf := frame.MustEncodeInto(pb.Bytes(), dst, nic.Addr(), h, payload)
	nic.Transmit(phys.NewPooledFrame(pb, buf, dst, nic.Addr()))
	c.lastTx = c.ep.env.Now()
	if h.HasAck {
		c.unackedRx = 0
		c.ackDue = false
		if c.ackTimer != nil {
			c.ackTimer.Stop()
		}
	}
	return li
}

// sendCtrl emits one pending explicit ACK or NACK frame.
func (c *Conn) sendCtrl() {
	if len(c.nackDue) > 0 {
		h := frame.Header{Type: frame.TypeNack, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true}
		// Encode into the conn's scratch buffer: a fresh payload slice
		// per NACK was an allocation on every repair round. An empty
		// missing list never reaches here (the branch requires entries),
		// so no header-only NACK frame is ever emitted.
		c.nackScratch = frame.AppendNackPayload(c.nackScratch[:0], c.nackDue)
		pl := c.nackScratch
		c.nackDue = nil
		c.ep.Stats.CtrlNacksSent++
		c.ep.trc(c.localID, trace.TxNack, c.rcvNxt, len(pl))
		c.sendFrame(&h, pl)
		return
	}
	if c.ackDue {
		h := frame.Header{Type: frame.TypeAck, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true}
		c.ep.Stats.CtrlAcksSent++
		c.ep.trc(c.localID, trace.TxAck, c.rcvNxt, 0)
		c.sendFrame(&h, nil)
	}
}

// queueRetrans schedules seq for retransmission if it is still
// outstanding and not already queued. Each repair event is attributed
// to the link the frame was last transmitted on, feeding dead-link
// detection. cause records why the repair was scheduled (NACK vs RTO)
// in the operation's span.
func (c *Conn) queueRetrans(seq uint32, cause obs.EventKind) {
	tf, ok := c.retrans.get(seq)
	if !ok || tf.inQ {
		return
	}
	tf.inQ = true
	c.retransQ = append(c.retransQ, seq)
	tf.op.forEachSpan(func(sp *obs.Span) {
		sp.Event(c.ep.env.Now(), cause, c.ep.node, tf.link, seq, len(tf.payload))
	})
	c.noteLinkRepair(tf.link)
}

// noteLinkRepair charges one repair event to link li. A link
// accumulating DeadLinkThreshold repairs without any acknowledged frame
// in between (see handleAck) is declared dead — unless it is the last
// link standing, which must keep carrying traffic regardless. The
// go-back-N baseline retransmits whole windows by design, so its
// repairs say nothing about link health and are not counted.
func (c *Conn) noteLinkRepair(li int) {
	th := c.ep.cfg.DeadLinkThreshold
	if th <= 0 || c.ep.cfg.GoBackN || li < 0 || li >= c.links || c.linkDead[li] {
		return
	}
	c.linkFails[li]++
	if c.linkFails[li] >= th && c.deadLinks < c.links-1 {
		c.linkDead[li] = true
		c.linkDeadAt[li] = c.ep.env.Now()
		c.deadLinks++
		c.ep.Stats.LinkDeadEvents++
		c.ep.trc(c.localID, trace.LinkDead, uint32(li), 0)
		c.ep.recEvent(c.localID, obs.RecLinkDead, int64(li), int64(c.deadLinks))
		c.armProbeTimer()
	}
}

// clearLinkFault resets link li's health after a frame sent on it at
// sentAt was acknowledged end-to-end. A dead link is re-admitted only
// when the acked transmission happened after the death declaration —
// late acknowledgements of frames that crossed the link before it
// failed prove nothing about its present state.
func (c *Conn) clearLinkFault(li int, sentAt sim.Time) {
	if li < 0 || li >= c.links {
		return
	}
	c.linkFails[li] = 0
	if c.linkDead[li] && sentAt > c.linkDeadAt[li] {
		c.linkDead[li] = false
		c.deadLinks--
		c.ep.Stats.LinkRestores++
		c.ep.trc(c.localID, trace.LinkRestore, uint32(li), 0)
		c.ep.recEvent(c.localID, obs.RecLinkRestore, int64(li), int64(c.deadLinks))
	}
}

// armProbeTimer schedules the next dead-link probe. The timer is armed
// from transmissions (and from the moment of death) rather than
// re-arming itself unconditionally, so an idle connection with a dead
// link quiesces instead of keeping the simulation alive forever.
func (c *Conn) armProbeTimer() {
	if c.closed || (c.probeTimer != nil && c.probeTimer.Pending()) {
		return
	}
	c.probeTimer = c.ep.env.Rearm(c.probeTimer, c.ep.cfg.LinkProbeInterval, c.probeFn)
}

// sendProbe transmits a fresh zero-size write frame whose FIRST copy is
// forced onto dead link li. Freshness is what makes the probe's
// acknowledgement unambiguous: no other copy of this sequence number
// exists anywhere, so a cumulative ACK covering it before any
// retransmission proves a frame crossed the dead link (handleAck then
// restores it via the txAt > linkDeadAt test). A lost probe is repaired
// like any data frame — NACKed or timed out and retransmitted, by then
// on a live link, which re-attributes the frame before its ACK can
// arrive.
func (c *Conn) sendProbe(li int) {
	op := &txOp{id: c.nextOpID, opType: frame.OpWrite, sentAll: true, unacked: 1, probe: true}
	c.nextOpID++
	tf := c.newTxFrame(op, c.sndNxt, 0)
	tf.link = li
	c.sndNxt++
	c.retrans.put(tf.seq, tf)
	c.ep.Stats.DataFramesSent++
	c.transmit(tf, false)
}

// updateRTT feeds one ack-derived round-trip sample into the Jacobson
// estimator (RFC 6298 coefficients: srtt ← 7/8·srtt + 1/8·s, rttvar ←
// 3/4·rttvar + 1/4·|srtt − s|, rto = srtt + 4·rttvar clamped to
// [RTOMin, RTOMax]). The estimate is always maintained for statistics;
// it is only *armed* in adaptive mode (Config.RTOMax > 0).
func (c *Conn) updateRTT(sample sim.Time) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.ep.Stats.RttSamples++
	cfg := &c.ep.cfg
	rto := c.srtt + 4*c.rttvar
	floor := cfg.RTOMin
	if floor <= 0 {
		floor = cfg.RTO
	}
	if rto < floor {
		rto = floor
	}
	if cfg.RTOMax > 0 && rto > cfg.RTOMax {
		rto = cfg.RTOMax
	}
	c.rto = rto
	if c.ep.rtoHist != nil {
		c.ep.rtoHist.Observe(float64(rto) / 1000)
	}
}

// updateRailRTT applies the per-rail samples gathered during one
// handleAck walk (railNewest/railHave) and clears the scratch. Same
// Jacobson/Karels coefficients as updateRTT, but per link and purely
// observational: nothing here arms a timer or feeds the conn-level RTO,
// so enabling nothing changes nothing.
func (c *Conn) updateRailRTT() {
	now := c.ep.env.Now()
	for li := 0; li < c.links; li++ {
		if !c.railHave[li] {
			continue
		}
		sample := now - c.railNewest[li]
		c.railNewest[li], c.railHave[li] = 0, false
		c.railApply(li, sample)
	}
}

// railApply folds one per-rail RTT sample into rail li's estimator.
func (c *Conn) railApply(li int, sample sim.Time) {
	if sample <= 0 || li < 0 || li >= c.links {
		return
	}
	if c.railSrtt[li] == 0 {
		c.railSrtt[li] = sample
		c.railRttvar[li] = sample / 2
		return
	}
	d := c.railSrtt[li] - sample
	if d < 0 {
		d = -d
	}
	c.railRttvar[li] = (3*c.railRttvar[li] + d) / 4
	c.railSrtt[li] = (7*c.railSrtt[li] + sample) / 8
}

// railProbing reports whether this connection measures rails with
// dedicated probe/echo exchanges. While probing, the ack-walk per-rail
// sampling is suppressed: a cumulative ack is gated on the slowest
// rail's interleaved frames, so its samples would drag every rail's
// estimate up to the slowest one and erase the split the weighted rail
// scheduler steers by.
func (c *Conn) railProbing() bool {
	return c.railOut != nil && c.links > 1
}

// armRailProbes starts the per-rail RTT probe tick on a multi-rail
// connection with the congestion controller enabled. Each tick probes
// ONE rail, rotating, at ProbeInterval/links — every rail is measured
// once per interval, but never two rails in the same instant: probes
// launched together contend for the shared protocol CPU at both ends,
// and that serialized per-frame cost swamps and reorders the very path
// difference the probes exist to measure. A daemon timer: an idle
// probing connection never keeps a finished simulation alive.
func (c *Conn) armRailProbes() {
	if !c.railProbing() || (c.railProbe != nil && c.railProbe.Pending()) {
		return
	}
	tick := c.ep.cfg.ccProbeIvl() / sim.Time(c.links)
	if tick < 50*sim.Microsecond {
		tick = 50 * sim.Microsecond
	}
	var fire func()
	fire = func() {
		if c.closed {
			return
		}
		c.sendRailProbe()
		c.railProbe = c.ep.afterDaemonTimer(tick, fire)
	}
	c.railProbe = c.ep.afterDaemonTimer(tick, fire)
}

// sendRailProbe emits one probe on the next live rail in rotation. Seq
// carries the rail index and OpID the transmit timestamp; the peer
// echoes both back on the arrival rail, so the returning sample
// measures that rail's own round trip — queueing in the fabric included
// — independent of the ARQ's cumulative acknowledgement.
func (c *Conn) sendRailProbe() {
	now := c.ep.env.Now()
	for i := 0; i < c.links; i++ {
		li := (c.railProbeRR + i) % c.links
		if c.deadLinks > 0 && c.deadLinks < c.links && c.linkDead[li] {
			continue
		}
		c.railProbeRR = (li + 1) % c.links
		h := frame.Header{Type: frame.TypeRailProbe, ConnID: c.remoteID,
			Ack: c.rcvNxt, HasAck: true, Seq: uint32(li), OpID: uint64(now)}
		c.sendFrameOn(&h, nil, li)
		c.ep.Stats.CcRailProbes++
		return
	}
}

// railRTO is the per-rail SRTT+4*RTTVAR estimate clamped like updateRTT,
// for health snapshots; 0 while the rail has no sample.
func (c *Conn) railRTO(li int) sim.Time {
	if li < 0 || li >= len(c.railSrtt) || c.railSrtt[li] == 0 {
		return 0
	}
	cfg := &c.ep.cfg
	rto := c.railSrtt[li] + 4*c.railRttvar[li]
	floor := cfg.RTOMin
	if floor <= 0 {
		floor = cfg.RTO
	}
	if rto < floor {
		rto = floor
	}
	if cfg.RTOMax > 0 && rto > cfg.RTOMax {
		rto = cfg.RTOMax
	}
	return rto
}

// currentRTO returns the timeout the next expiry timer should use: the
// fixed Config.RTO outside adaptive mode, otherwise the Jacobson
// estimate doubled once per consecutive expiry (exponential backoff)
// and capped at RTOMax.
func (c *Conn) currentRTO() sim.Time {
	cfg := &c.ep.cfg
	if cfg.RTOMax <= 0 {
		return cfg.RTO
	}
	d := c.rto
	for i := 0; i < c.expiries && d < cfg.RTOMax; i++ {
		d *= 2
	}
	if d > cfg.RTOMax {
		d = cfg.RTOMax
	}
	return d
}

// armRTO (re)starts the coarse retransmission timer (§2.4). With
// DeadInterval set the timer never sleeps past the death deadline, so
// peer-failure detection latency is bounded by DeadInterval itself and
// not by DeadInterval plus one (possibly backed-off) timeout.
func (c *Conn) armRTO() {
	if c.closed {
		return
	}
	if c.rtoTimer != nil {
		c.rtoTimer.Stop()
	}
	d := c.currentRTO()
	if di := c.ep.cfg.DeadInterval; di > 0 {
		if rem := c.lastProgress + di - c.ep.env.Now(); rem < d {
			d = rem
			if d < 0 {
				d = 0
			}
		}
	}
	c.rtoTimer = c.ep.rearmTimer(c.rtoTimer, d, c.onRTOFn)
}

func (c *Conn) onRTO() {
	if c.closed || c.inflight() == 0 {
		return
	}
	cfg := &c.ep.cfg
	now := c.ep.env.Now()
	c.ep.Stats.RtoExpiries++
	c.expiries++
	if c.expiries > c.ep.Stats.RtoBackoffMax {
		c.ep.Stats.RtoBackoffMax = c.expiries
	}
	if c.ep.backoffHist != nil {
		c.ep.backoffHist.Observe(float64(c.expiries))
	}
	c.ep.recEvent(c.localID, obs.RecRtoExpiry, int64(c.expiries), int64(c.inflight()))
	if (cfg.MaxRetries > 0 && c.expiries > cfg.MaxRetries) ||
		(cfg.DeadInterval > 0 && now-c.lastProgress >= cfg.DeadInterval) {
		c.peerLost(fmt.Errorf("core: connection to node %d: no ack progress after %d timeouts over %v: %w",
			c.remoteNode, c.expiries, now-c.lastProgress, ErrPeerDead), true)
		return
	}
	// Loss is a congestion signal: halve the window (at most once per
	// flight) and re-open the retransmission budget — RTO expiry is the
	// clock that paces a blocked recovery forward.
	c.ccOnRto()
	if cfg.GoBackN {
		// Go-back-N baseline: resend everything outstanding.
		for s := c.sndUna; s != c.sndNxt; s++ {
			c.queueRetrans(s, obs.EvRtoRepair)
		}
	} else {
		// The paper's rule: retransmit the last transmitted frame; the
		// receiver then sees the gap and NACKs anything else missing.
		seq := c.sndNxt - 1
		if !c.retrans.has(seq) {
			seq = c.sndUna
		}
		c.queueRetrans(seq, obs.EvRtoRepair)
	}
	c.armRTO()
	c.kick()
}

// handleAck processes a cumulative acknowledgement (piggy-backed or
// explicit): it releases retransmit buffers, advances the window and
// completes operations whose every frame is acknowledged.
func (c *Conn) handleAck(ack uint32) {
	if int32(ack-c.sndUna) <= 0 {
		return // stale
	}
	if int32(ack-c.sndNxt) > 0 {
		ack = c.sndNxt // defensive: never ack beyond what was sent
	}
	// Newest never-retransmitted acked frame (Karn). The timestamp is
	// copied out rather than holding the frame: each tf is recycled the
	// moment its op bookkeeping is done.
	var newestAt sim.Time
	haveNewest := false
	for s := c.sndUna; s != ack; s++ {
		tf, ok := c.retrans.get(s)
		c.retrans.del(s)
		if ok {
			c.bytesAcked += uint64(len(tf.payload))
			tf.op.unacked--
			if tf.op.h != nil && tf.op.opType == frame.OpWrite {
				tf.op.h.acked += len(tf.payload)
			}
			tf.op.forEachSpan(func(sp *obs.Span) {
				sp.Event(c.ep.env.Now(), obs.EvAck, c.ep.node, tf.link, s, len(tf.payload))
			})
			c.clearLinkFault(tf.link, tf.txAt)
			if !tf.retx && (!haveNewest || tf.txAt > newestAt) {
				newestAt, haveNewest = tf.txAt, true
			}
			if !tf.retx && !c.railProbing() && tf.link >= 0 && tf.link < c.links &&
				(!c.railHave[tf.link] || tf.txAt > c.railNewest[tf.link]) {
				c.railNewest[tf.link], c.railHave[tf.link] = tf.txAt, true
			}
			if c.railOut != nil {
				c.railDec(tf.link)
			}
			op := tf.op
			c.freeTxFrame(tf)
			c.checkTxOpDone(op)
		}
	}
	if c.ep.cfg.ccOn() {
		c.ccOnAck(int(ack - c.sndUna))
	}
	c.sndUna = ack
	c.expiries = 0
	c.lastProgress = c.ep.env.Now()
	if haveNewest {
		c.updateRTT(c.ep.env.Now() - newestAt)
		c.updateRailRTT()
	}
	if c.inflight() > 0 {
		c.armRTO()
	} else if c.rtoTimer != nil {
		c.rtoTimer.Stop()
	}
	c.kick() // the window may have opened
}

// handleNack retransmits the frames a NACK reports missing (selective
// repeat; the go-back-N baseline never receives NACKs).
func (c *Conn) handleNack(missing []uint32) {
	for _, s := range missing {
		c.queueRetrans(s, obs.EvNackRepair)
	}
	c.kick()
}

// checkTxOpDone completes a send-side operation once fully fragmented
// and fully acknowledged. Writes complete here; reads complete when the
// reply data lands (completeRead).
func (c *Conn) checkTxOpDone(op *txOp) {
	if op.completed || !op.sentAll || op.unacked != 0 {
		return
	}
	op.completed = true
	op.data = nil
	if op.dataBuf != nil {
		frame.PutBuf(op.dataBuf)
		op.dataBuf = nil
	}
	c.qosRelease(op)
	if op.probe {
		return // internal probe: no user-visible completion
	}
	if op.flags&frame.FenceAfter != 0 {
		for i, f := range c.txFenced {
			if f == op.id {
				c.txFenced = append(c.txFenced[:i], c.txFenced[i+1:]...)
				break
			}
		}
		c.kick() // stalled operations may proceed now
	}
	if op.subs != nil {
		// Coalesced batch: every sub-op completes with the shared frame.
		// Fan completions out per sub-op, in issue order.
		now := c.ep.env.Now()
		for i := range op.subs {
			s := &op.subs[i]
			c.ep.Stats.OpsCompleted++
			s.span.EndAt(now)
			c.pushCompletion(Completion{OpID: s.id, Op: s.op})
		}
		return
	}
	c.ep.Stats.OpsCompleted++
	if op.opType == frame.OpRead {
		// The request is fully acknowledged but nothing is in flight any
		// more: the RTO machinery is quiet while we wait for the reply, so
		// a daemon guard keeps DeadInterval protection over the wait.
		c.armReadGuard()
		return // handle fires when the reply arrives
	}
	// Writes are complete once fully acknowledged; reads (and the read
	// span, which the reply txOp shares) end when the reply data lands.
	if op.opType != frame.OpReadReply {
		op.span.EndAt(c.ep.env.Now())
	}
	if op.h != nil {
		h := op.h
		if h.dlTimer != nil {
			h.dlTimer.Stop()
		}
		// Waking the user process costs CPU only if someone is blocked
		// on the handle; a poll-later handle just flips state.
		if h.done.HasWaiters() {
			c.ep.cpus.Proto.SubmitArg(c.ep.env, c.ep.costs.UserWake, c.ep.fireSigFn, &h.done)
		} else {
			h.done.Fire(c.ep.env)
		}
		if h.cq {
			c.pushCompletion(Completion{OpID: h.opID, Op: h.op})
		}
	}
}

// ---------------------------------------------------------------------
// Failure handling: peer death, deadlines, liveness (ISSUE 3).
// ---------------------------------------------------------------------

// finishHandle terminates a handle with err: deadline expiry or
// connection failure. The waiter (if any) is woken exactly once; a CQ
// handle also fans the error out as a Completion.
func (c *Conn) finishHandle(h *Handle, err error) {
	if h == nil || h.done.Fired() {
		return
	}
	if h.dlTimer != nil {
		h.dlTimer.Stop()
	}
	h.err = err
	ep := c.ep
	if h.done.HasWaiters() {
		ep.cpus.Proto.SubmitArg(ep.env, ep.costs.UserWake, ep.fireSigFn, &h.done)
	} else {
		h.done.Fire(ep.env)
	}
	if h.cq {
		c.pushCompletion(Completion{OpID: h.opID, Op: h.op, Err: err})
	}
}

// failTxOp terminates one send-side operation with cause, releasing its
// buffers and delivering error completions to every waiter — the
// handle, the CQ, and each sub-op of a coalesced batch.
func (c *Conn) failTxOp(t *txOp, cause error) {
	if t == nil || t.completed {
		return
	}
	t.completed = true
	t.data = nil
	if t.dataBuf != nil {
		frame.PutBuf(t.dataBuf)
		t.dataBuf = nil
	}
	c.qosRelease(t)
	if t.probe {
		return // internal probe: no user-visible completion
	}
	now := c.ep.env.Now()
	if t.subs != nil {
		for i := range t.subs {
			s := &t.subs[i]
			c.ep.Stats.OpsFailed++
			s.span.EndAt(now)
			c.pushCompletion(Completion{OpID: s.id, Op: s.op, Err: cause})
		}
		return
	}
	if t.opType != frame.OpReadReply {
		t.span.EndAt(now)
	}
	if t.opType == frame.OpRead {
		delete(c.pendingReads, t.id)
	}
	h := t.h
	t.h = nil
	if h != nil {
		c.ep.Stats.OpsFailed++
		c.finishHandle(h, cause)
	}
}

// expireHandle fires when an operation's Op.Deadline passes before it
// completes. Only the waiter is released: the transfer itself keeps
// running, because cancelling a partially transmitted operation would
// leave a hole in the receiver's sequence and fence frontier. t is the
// operation the handle belongs to (nil for an already-detached handle).
func (c *Conn) expireHandle(h *Handle, t *txOp) {
	if h.done.Fired() || c.failed {
		return // completed (or conn-failed) in the meantime
	}
	ep := c.ep
	ep.Stats.OpDeadlinesExpired++
	ep.Stats.OpsFailed++
	if t != nil && t.h == h {
		t.h = nil // detach: completion machinery no longer owns the waiter
	}
	if t != nil && t.opType == frame.OpRead {
		delete(c.pendingReads, t.id)
		if len(c.pendingReads) == 0 && c.readGuard != nil {
			c.readGuard.Stop()
		}
	}
	c.finishHandle(h, fmt.Errorf("core: op %d to node %d: %w", h.opID, c.remoteNode, ErrDeadlineExceeded))
}

// failConn transitions the connection to the Failed state: every queued
// and in-flight operation, pending read and posted descriptor completes
// with cause (which wraps ErrPeerDead), all timers stop, and — when the
// failure was detected locally — a Reset ctrl frame tells the peer on
// every rail so its side fails promptly too instead of burning its own
// retry budget. Iteration orders are deterministic (sequence walk, FIFO
// slices, sorted read ids) so failure runs replay bit-identically.
func (c *Conn) failConn(cause error, sendReset bool) {
	if c.closed {
		return
	}
	ep := c.ep
	c.failed = true
	c.failErr = cause
	c.closed = true
	ep.Stats.PeerDeadEvents++
	ep.trc(c.localID, trace.PeerDead, 0, 0)
	ep.recEvent(c.localID, obs.RecFailed, int64(c.expiries), int64(c.inflight()))
	c.stopTimers()
	c.stopCloseTimer()
	// A conn that dies mid-reconnect closes its outage span: the outage
	// ended, just not with a recovery.
	c.reconnecting = false
	if c.reconnSpan != nil {
		c.reconnSpan.EndAt(ep.env.Now())
		c.reconnSpan = nil
	}
	if sendReset && c.established.Fired() {
		c.sendResetFrames()
	}
	// Outstanding window frames, then queued operations. Each frame
	// record is recycled after its op is failed (the op-level completed
	// guard makes the second visit through txOps a no-op).
	for s := c.sndUna; s != c.sndNxt; s++ {
		if tf, ok := c.retrans.get(s); ok {
			c.failTxOp(tf.op, cause)
			c.freeTxFrame(tf)
		}
	}
	for _, t := range c.txOps {
		c.failTxOp(t, cause)
	}
	// Reads whose requests were fully acknowledged (their txOps are gone;
	// only the reply was pending).
	if len(c.pendingReads) > 0 {
		ids := make([]uint64, 0, len(c.pendingReads))
		for id := range c.pendingReads {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			h := c.pendingReads[id]
			delete(c.pendingReads, id)
			ep.Stats.OpsFailed++
			c.finishHandle(h, cause)
		}
	}
	// Posted-but-unrung descriptors never received ids; their error
	// completions carry OpID 0 and the original Op for correlation. Each
	// still holds the admission quota Post charged — return it.
	for _, op := range c.sq {
		ep.Stats.OpsFailed++
		ep.qosUncharge(c.opClass(op), 1, op.Size)
		c.pushCompletion(Completion{Op: op, Err: cause})
	}
	if n := len(c.sq); n > 0 {
		c.sq = nil
		ep.noteSQDepth(-n)
	}
	c.retrans.clear()
	c.retransQ = nil
	c.txOps = nil
	c.txFenced = nil
	c.held = nil
	// Wake processes parked in WaitNotify with one poison notification
	// each; with c.failed set, later calls return the poison without
	// parking. No caller may hang on a dead peer.
	for c.notifyQ.HasWaiters() {
		c.notifyQ.Send(ep.env, Notification{From: c.remoteNode, Len: -1})
	}
	ep.removeConn(c)
}

// sendResetFrames tells the peer on every rail that this side has
// condemned the current epoch — on peer death so the other side fails
// promptly instead of burning its own retry budget, and on entering
// Reconnecting so the peer parks too. The frames carry the condemned
// incarnation: the receiver treats a Reset for a stale epoch as noise.
func (c *Conn) sendResetFrames() {
	ep := c.ep
	h := frame.Header{Type: frame.TypeReset, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true,
		Incarnation: c.incarnation}
	for li := 0; li < c.links; li++ {
		nic := ep.nics[li]
		dst := frame.NewAddr(c.remoteNode, li)
		buf := frame.MustEncode(dst, nic.Addr(), &h, nil)
		nic.Transmit(&phys.Frame{Buf: buf, Dst: dst, Src: nic.Addr()})
		ep.Stats.ResetsSent++
	}
}

// startKeepalive initializes liveness tracking at connection
// establishment and, with heartbeats enabled, arms the idle-side tick.
// The tick is a daemon timer: an idle heart-beating connection never
// keeps an otherwise-finished simulation alive.
func (c *Conn) startKeepalive() {
	now := c.ep.env.Now()
	c.lastHeard = now
	c.lastTx = now
	c.lastProgress = now
	c.armRailProbes()
	hb := c.ep.cfg.HeartbeatInterval
	if hb <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if c.closed {
			return
		}
		now := c.ep.env.Now()
		if di := c.ep.cfg.DeadInterval; di > 0 && now-c.lastHeard >= di {
			c.peerLost(fmt.Errorf("core: connection to node %d: peer silent for %v: %w",
				c.remoteNode, now-c.lastHeard, ErrPeerDead), true)
			return
		}
		if now-c.lastTx >= hb {
			c.sendHeartbeat()
		}
		c.hbTimer = c.ep.afterDaemonTimer(hb, tick)
	}
	c.hbTimer = c.ep.afterDaemonTimer(hb, tick)
}

// sendHeartbeat emits one liveness ctrl frame. Like every control
// frame it carries the cumulative acknowledgement for free.
func (c *Conn) sendHeartbeat() {
	h := frame.Header{Type: frame.TypeHeartbeat, ConnID: c.remoteID, Ack: c.rcvNxt, HasAck: true}
	c.ep.Stats.HeartbeatsSent++
	c.sendFrame(&h, nil)
}

// armReadGuard starts the daemon liveness check that covers reads whose
// requests are acknowledged: nothing is in flight, so neither the RTO
// path nor (with heartbeats off) any other timer would notice the peer
// dying before the reply.
func (c *Conn) armReadGuard() {
	if c.closed || c.ep.cfg.DeadInterval <= 0 || (c.readGuard != nil && c.readGuard.Pending()) {
		return
	}
	if c.rdGuardFn == nil {
		c.rdGuardFn = c.checkReadLiveness
	}
	c.readGuard = c.ep.rearmDaemonTimer(c.readGuard, c.ep.cfg.DeadInterval, c.rdGuardFn)
}

func (c *Conn) checkReadLiveness() {
	if c.closed || len(c.pendingReads) == 0 {
		return
	}
	di := c.ep.cfg.DeadInterval
	now := c.ep.env.Now()
	if silent := now - c.lastHeard; silent >= di {
		c.peerLost(fmt.Errorf("core: connection to node %d: read reply outstanding, peer silent for %v: %w",
			c.remoteNode, silent, ErrPeerDead), true)
		return
	}
	c.readGuard = c.ep.rearmDaemonTimer(c.readGuard, c.lastHeard+di-now, c.rdGuardFn)
}

// ---------------------------------------------------------------------
// Receive path: ARQ.
// ---------------------------------------------------------------------

// handleData runs the ARQ acceptance logic for a data or read-request
// frame, updates acknowledgement state, and hands accepted frames to the
// ordering engine. link is the arrival NIC index.
func (c *Conn) handleData(h frame.Header, payload []byte, link int) {
	ep := c.ep
	if h.HasAck {
		c.handleAck(h.Ack)
	}
	seq := h.Seq
	if link < len(c.linkHigh) {
		if int32(seq+1-c.linkHigh[link]) > 0 {
			c.linkHigh[link] = seq + 1
		}
		c.linkLast[link] = ep.env.Now()
	}
	if ep.cfg.GoBackN {
		if seq != c.rcvNxt {
			ep.Stats.GbnDropped++
			if int32(seq-c.rcvNxt) < 0 && len(payload) > 0 {
				// Below the cumulative ack: its payload was already applied.
				ep.Stats.DupFramesDropped++
			}
			c.forceAck()
			return
		}
		c.rcvNxt++
		ep.Stats.Arrivals++
		c.acceptData(h, payload)
		c.ackPolicy()
		return
	}
	// Selective repeat.
	if int32(seq-c.rcvNxt) < 0 || c.rcvSeen.has(seq) {
		ep.Stats.Duplicates++
		if len(payload) > 0 {
			// The payload was applied when the first copy arrived; this
			// copy is dropped here, before the ordering/apply machinery.
			ep.Stats.DupFramesDropped++
		}
		ep.trc(c.localID, trace.RxDuplicate, seq, len(payload))
		// The sender is resending: our ACKs — and possibly our NACKs —
		// were lost. Re-advertise both promptly so repair converges.
		if c.missingSince.size() > 0 {
			c.queueNack(true)
		}
		c.forceAck()
		return
	}
	c.rcvSeen.put(seq, struct{}{})
	c.missingSince.del(seq)
	c.nackedAt.del(seq)
	ep.Stats.Arrivals++
	if int32(c.maxSeenPlus1-seq) > 0 {
		ep.Stats.OOOArrivals++
		ep.trc(c.localID, trace.RxOutOfOrder, seq, len(payload))
	} else {
		// In-order extension: any sequence numbers it skips over become
		// missing as of now (bounded by the tracked-gap cap).
		for s := c.maxSeenPlus1; s != seq; s++ {
			if !c.rcvSeen.has(s) && int32(s-c.rcvNxt) >= 0 {
				c.trackGap(s, ep.env.Now())
			}
		}
		c.maxSeenPlus1 = seq + 1
	}
	// Advance the cumulative point, pruning the dedupe entries it passes:
	// everything below rcvNxt is rejected by the stale check above, so
	// the seen-set's live span stays within the window by construction
	// (TestRcvSeenBounded drives a million lossy frames through this).
	for c.rcvSeen.has(c.rcvNxt) {
		c.rcvSeen.del(c.rcvNxt)
		c.rcvNxt++
	}
	// Gap / NACK logic (§2.4: negative acknowledgements report lost or
	// damaged frames). Multi-link round-robin reorders frames by a few
	// microseconds as a matter of course, so a sequence number is only
	// NACKed once it has been missing for a loss-scale age; younger
	// gaps are reordering, not loss.
	if c.missingSince.size() > 0 {
		c.queueNack(false)
		c.armNackTimer()
	} else if c.nackTimer != nil {
		c.nackTimer.Stop()
	}
	c.acceptData(h, payload)
	c.ackPolicy()
}

// nackAge is the age a gap must reach before an arrival-triggered NACK;
// the timer path uses the full NackDelay.
func (c *Conn) nackAge() sim.Time { return c.ep.cfg.NackDelay / 4 }

const (
	// maxNack bounds the missing list one NACK frame may carry. Gaps
	// beyond it are repaired by later rounds: explicit repairs advance
	// the cumulative ACK, which slides the window over the remainder.
	maxNack = 64
	// maxTrackedGaps bounds the receive-side missing-sequence map. A
	// long outage on one rail can open a gap as wide as the sender's
	// window every round trip; tracking more than this many sequence
	// numbers buys nothing (a NACK reports at most maxNack anyway) and
	// would let protocol state grow without bound at fan-in scale.
	// Untracked gaps are counted (Stats.NackGapsDropped) and repaired
	// by the cumulative-ACK/RTO fallback as the window slides.
	maxTrackedGaps = 256
)

// trackGap records sequence number s as missing since now, subject to
// the maxTrackedGaps cap.
func (c *Conn) trackGap(s uint32, now sim.Time) {
	if c.missingSince.size() >= maxTrackedGaps {
		c.ep.Stats.NackGapsDropped++
		c.ep.recEvent(c.localID, obs.RecNackDrop, int64(s), int64(c.missingSince.size()))
		return
	}
	c.missingSince.put(s, now)
}

// mergeNacks merges two ascending missing-sequence lists into one
// deduplicated ascending list, capped at maxNack entries. Merging (vs
// the old overwrite) means a NACK prompted by a duplicate cannot erase
// still-unrepaired sequence numbers queued by an earlier gap report.
func mergeNacks(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return b
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch d := int32(a[i] - b[j]); {
		case d == 0:
			out = append(out, a[i])
			i++
			j++
		case d < 0:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if len(out) > maxNack {
		out = out[:maxNack]
	}
	return out
}

// armNackTimer keeps a gap-age check pending while anything is missing,
// so NACKs are re-sent if they (or the retransmissions) are lost.
func (c *Conn) armNackTimer() {
	if c.closed || (c.nackTimer != nil && c.nackTimer.Pending()) {
		return
	}
	c.nackTimer = c.ep.rearmTimer(c.nackTimer, c.ep.cfg.NackDelay, c.nackFn)
}

// queueNack schedules an explicit NACK for sequence numbers that have
// been missing long enough to be presumed lost. A short cooldown
// prevents repeated NACKs for the same loss within one repair
// round-trip; force bypasses the age filter half-way (timer path).
func (c *Conn) queueNack(force bool) {
	if c.closed {
		return
	}
	now := c.ep.env.Now()
	minAge := c.nackAge()
	if force {
		minAge = c.nackAge() / 2
	}
	if now-c.lastNack < c.nackAge() {
		return
	}
	var missing []uint32
	for s := c.rcvNxt; int32(c.maxSeenPlus1-s) > 0 && len(missing) < maxNack; s++ {
		if c.rcvSeen.has(s) {
			continue
		}
		since, ok := c.missingSince.get(s)
		if !ok {
			c.trackGap(s, now)
			continue
		}
		if now-since < minAge {
			continue
		}
		// Don't re-request a sequence number whose repair should still
		// be in flight (one NACK per round trip, roughly).
		if at, ok := c.nackedAt.get(s); ok && now-at < 4*c.nackAge() {
			continue
		}
		// Per-link FIFO: s can only be lost once every physical path
		// has delivered a frame beyond it; otherwise it may simply be
		// queued behind other frames on its path. A link silent for
		// LinkStaleAge cannot be hiding s in a draining queue (the
		// drain itself would have delivered something), so it is
		// presumed empty or dead and loses its veto — otherwise a
		// hard-failed link would suppress loss detection forever.
		stale := c.ep.cfg.LinkStaleAge
		passed := true
		for li, hi := range c.linkHigh {
			if int32(hi-s) <= 0 {
				if stale > 0 && now-c.linkLast[li] > stale {
					continue
				}
				passed = false
				break
			}
		}
		if passed {
			missing = append(missing, s)
			c.nackedAt.put(s, now)
		}
	}
	if len(missing) > 0 {
		c.lastNack = now
		c.nackDue = mergeNacks(c.nackDue, missing)
		c.kick()
	}
}

// ackPolicy implements delayed acknowledgements (§2.4): explicit ACKs
// only after AckEvery frames or AckDelay without reverse traffic.
func (c *Conn) ackPolicy() {
	if c.closed {
		return
	}
	c.unackedRx++
	if c.unackedRx >= c.ep.cfg.AckEvery {
		c.ackDue = true
		c.kick()
		return
	}
	if c.ackTimer == nil || !c.ackTimer.Pending() {
		c.ackTimer = c.ep.rearmTimer(c.ackTimer, c.ep.cfg.AckDelay, c.ackFn)
	}
}

// forceAck schedules an immediate explicit acknowledgement (duplicate
// seen or go-back-N discard: the sender needs our state now).
func (c *Conn) forceAck() {
	if c.closed {
		return
	}
	c.ackDue = true
	c.kick()
}

// ---------------------------------------------------------------------
// Receive path: ordering, fences, delivery (IPPS'07 §2.5).
// ---------------------------------------------------------------------

// acceptData routes an ARQ-accepted frame to delivery. In strict mode
// frames apply in exact sequence order; otherwise frames apply on
// arrival unless fence semantics hold them back.
func (c *Conn) acceptData(h frame.Header, payload []byte) {
	ep := c.ep
	ep.Stats.DataFramesRecv++
	ep.Stats.DataBytesRecv += uint64(len(payload))
	ep.trc(c.localID, trace.RxData, h.Seq, len(payload))
	if ep.cfg.Strict {
		if h.Seq == c.applyNxt {
			c.applyFrame(h, payload)
			c.applyNxt++
			for {
				hf, ok := c.strictBuf.get(c.applyNxt)
				if !ok {
					break
				}
				c.strictBuf.del(c.applyNxt)
				c.noteUnheld(hf.heldAt)
				c.applyFrame(hf.h, hf.payload)
				c.applyNxt++
			}
		} else {
			c.strictBuf.put(h.Seq, heldFrame{h: h, payload: heldCopy(payload), heldAt: ep.env.Now()})
			ep.Stats.HeldFrames++
			ep.trc(c.localID, trace.RxHeld, h.Seq, len(payload))
			c.noteHold(h, payload)
			if n := c.strictBuf.size(); n > ep.Stats.HoldMax {
				ep.Stats.HoldMax = n
			}
		}
		return
	}
	if h.Type == frame.TypeMultiData {
		// A coalesced frame never gets a container rxOp (its id is the
		// last sub-op's id); each sub-op runs the ordering machinery as
		// its own single-frame write.
		for _, sh := range c.fanoutMulti(h, payload) {
			op := c.getRxOp(sh.h)
			if c.canApply(op) {
				c.applyFrame(sh.h, sh.payload)
			} else {
				c.held = append(c.held, heldFrame{h: sh.h, payload: heldCopy(sh.payload), heldAt: ep.env.Now()})
				ep.Stats.HeldFrames++
				ep.trc(c.localID, trace.RxHeld, sh.h.Seq, len(sh.payload))
				c.noteHold(sh.h, sh.payload)
				if n := len(c.held); n > ep.Stats.HoldMax {
					ep.Stats.HoldMax = n
				}
			}
		}
		c.drainHeld()
		return
	}
	op := c.getRxOp(h)
	if c.canApply(op) {
		c.applyFrame(h, payload)
		c.drainHeld()
	} else {
		c.held = append(c.held, heldFrame{h: h, payload: heldCopy(payload), heldAt: ep.env.Now()})
		ep.Stats.HeldFrames++
		ep.trc(c.localID, trace.RxHeld, h.Seq, len(payload))
		c.noteHold(h, payload)
		if n := len(c.held); n > ep.Stats.HoldMax {
			ep.Stats.HoldMax = n
		}
	}
}

// heldCopy snapshots a payload that outlives frame dispatch: held and
// strict-buffered frames are retained after the arrival frame's pooled
// wire buffer is released back to the pool (see Endpoint dispatch), so
// they must own their bytes. Immediate applies stay copy-free.
func heldCopy(payload []byte) []byte {
	if len(payload) == 0 {
		return nil
	}
	return append([]byte(nil), payload...)
}

// fanoutMulti decodes a MultiData frame into per-sub-op synthetic Data
// frames that flow through the ordinary ordering, fence and completion
// machinery. The payload was encoded by our own sender and arrived
// through the reliable ARQ, so a decode failure is a protocol bug.
func (c *Conn) fanoutMulti(h frame.Header, payload []byte) []heldFrame {
	subs, err := frame.DecodeMultiPayload(payload)
	if err != nil {
		panic(fmt.Sprintf("core: node %d bad MultiData payload: %v", c.ep.node, err))
	}
	out := make([]heldFrame, len(subs))
	for i, s := range subs {
		out[i] = heldFrame{
			h: frame.Header{
				Type: frame.TypeData, ConnID: h.ConnID, Seq: h.Seq,
				OpID: s.OpID, OpType: frame.OpWrite, OpFlags: s.Flags,
				Remote: s.Remote, Offset: 0, Total: uint32(len(s.Data)),
			},
			payload: s.Data,
		}
	}
	return out
}

// noteHold records a receive-side stall (ordering or fence) in the
// frame's span.
func (c *Conn) noteHold(h frame.Header, payload []byte) {
	if sp := c.frameSpan(h.OpType, h.OpID, h.Local); sp != nil {
		sp.Event(c.ep.env.Now(), obs.EvRxHold, c.ep.node, -1, h.Seq, len(payload))
	}
}

// noteUnheld feeds the hold-duration histogram when a buffered frame is
// finally applied.
func (c *Conn) noteUnheld(heldAt sim.Time) {
	if c.ep.holdHist != nil && heldAt > 0 {
		c.ep.holdHist.Observe(float64(c.ep.env.Now()-heldAt) / 1000)
	}
}

// getRxOp finds or creates the receive-side operation record for a
// frame.
func (c *Conn) getRxOp(h frame.Header) *rxOp {
	op, ok := c.rxOps[h.OpID]
	if !ok {
		if n := len(c.rxFree); n > 0 {
			op = c.rxFree[n-1]
			c.rxFree = c.rxFree[:n-1]
		} else {
			op = &rxOp{}
		}
		*op = rxOp{
			id: h.OpID, opType: h.OpType, flags: h.OpFlags,
			total: h.Total, remote: h.Remote, local: h.Local,
		}
		if h.OpID < c.frontier {
			// A duplicate of an op already completed and garbage
			// collected cannot occur (ARQ dedupes), but guard anyway.
			op.complete = true
		}
		c.rxOps[h.OpID] = op
		if op.flags&frame.FenceAfter != 0 && !op.complete {
			op.isFenced = true
			c.insertFenced(op.id)
		}
	}
	return op
}

func (c *Conn) insertFenced(id uint64) {
	i := len(c.fenced)
	for i > 0 && c.fenced[i-1] > id {
		i--
	}
	c.fenced = append(c.fenced, 0)
	copy(c.fenced[i+1:], c.fenced[i:])
	c.fenced[i] = id
}

func (c *Conn) removeFenced(id uint64) {
	for i, f := range c.fenced {
		if f == id {
			c.fenced = append(c.fenced[:i], c.fenced[i+1:]...)
			return
		}
	}
}

// canApply implements the fence semantics of §2.5: a frame may be
// performed unless an earlier forward-fenced operation is incomplete, or
// its own operation carries a backward fence and any earlier operation
// is incomplete.
func (c *Conn) canApply(op *rxOp) bool {
	if len(c.fenced) > 0 && c.fenced[0] < op.id {
		return false
	}
	if op.flags&frame.FenceBefore != 0 && c.frontier < op.id {
		return false
	}
	return true
}

// drainHeld re-examines held frames until no more become applicable.
func (c *Conn) drainHeld() {
	for {
		progressed := false
		kept := c.held[:0]
		for _, hf := range c.held {
			op := c.getRxOp(hf.h)
			if c.canApply(op) {
				c.noteUnheld(hf.heldAt)
				c.applyFrame(hf.h, hf.payload)
				progressed = true
			} else {
				kept = append(kept, hf)
			}
		}
		c.held = kept
		if !progressed {
			return
		}
	}
}

// applyFrame performs one frame: copies write/reply payload into memory
// or services a read request, then advances operation completion.
func (c *Conn) applyFrame(h frame.Header, payload []byte) {
	if h.Type == frame.TypeMultiData {
		// Strict mode delivers the container frame here in sequence
		// order; its sub-ops apply back-to-back, preserving issue order.
		for _, sh := range c.fanoutMulti(h, payload) {
			c.applyFrame(sh.h, sh.payload)
		}
		return
	}
	ep := c.ep
	op := c.getRxOp(h)
	if sp := c.frameSpan(h.OpType, h.OpID, h.Local); sp != nil {
		sp.Event(ep.env.Now(), obs.EvRxApply, ep.node, -1, h.Seq, len(payload))
	}
	switch h.Type {
	case frame.TypeReadReq:
		c.serveRead(h)
		c.completeRxOp(op)
		return
	case frame.TypeData:
		if op.complete {
			// Last line of defence: the ARQ already suppresses duplicates,
			// so a payload for a completed operation must never be
			// re-applied over newer data.
			if len(payload) > 0 {
				ep.Stats.DupFramesDropped++
			}
			return
		}
		if len(payload) > 0 {
			end := h.Remote + uint64(h.Offset) + uint64(len(payload))
			if end > uint64(len(ep.mem)) {
				panic(fmt.Sprintf("core: node %d remote write [%d,%d) outside memory",
					ep.node, h.Remote+uint64(h.Offset), end))
			}
			copy(ep.mem[h.Remote+uint64(h.Offset):end], payload)
		}
		op.applied += uint32(len(payload))
		if op.applied >= op.total {
			c.completeRxOp(op)
		}
	}
}

// completeRxOp marks a receive-side operation performed: fences lift,
// the frontier advances, notifications fire, read replies complete their
// read handles.
func (c *Conn) completeRxOp(op *rxOp) {
	if op.complete {
		return
	}
	op.complete = true
	ep := c.ep
	if sp := c.frameSpan(op.opType, op.id, op.local); sp != nil {
		sp.Event(ep.env.Now(), obs.EvRxComplete, ep.node, -1, 0, int(op.applied))
		if op.opType == frame.OpReadReply {
			// The requester's read is done when the reply data has landed.
			sp.EndAt(ep.env.Now())
		}
	}
	if op.isFenced {
		c.removeFenced(op.id)
	}
	// Frontier-collected records are recycled. op itself may be among
	// them but is still read below, so its own recycle is deferred to
	// the end of the function (nothing can pull from the freelist in
	// between — getRxOp only runs on a later dispatch).
	collected := false
	for {
		f, ok := c.rxOps[c.frontier]
		if !ok || !f.complete {
			break
		}
		delete(c.rxOps, c.frontier)
		c.frontier++
		if f == op {
			collected = true
		} else {
			c.rxFree = append(c.rxFree, f)
		}
	}
	if op.flags&frame.Solicit != 0 {
		// Solicited acknowledgement: bypass the delayed-ACK policy so
		// the initiator's completion takes one round trip, not an
		// AckDelay. The ACK is still cumulative — if unrelated earlier
		// frames are missing it cannot complete the operation early.
		c.forceAck()
	}
	if op.flags&frame.Notify != 0 && op.opType == frame.OpWrite {
		ep.Stats.Notifies++
		n := Notification{From: c.remoteNode, OpID: op.id, Addr: op.remote, Len: int(op.total)}
		q := &c.notifyQ
		if ep.notifyAll != nil {
			q = ep.notifyAll
		}
		ep.cpus.Proto.Submit(ep.env, ep.costs.UserWake, func() { q.Send(ep.env, n) })
	}
	if op.opType == frame.OpReadReply {
		if h, ok := c.pendingReads[op.local]; ok {
			delete(c.pendingReads, op.local)
			if len(c.pendingReads) == 0 && c.readGuard != nil {
				// No replies outstanding: cancel the liveness guard so its
				// (daemon) tick does not advance a drained simulation's
				// clock under RunUntil.
				c.readGuard.Stop()
			}
			h.acked = int(op.applied)
			if h.dlTimer != nil {
				h.dlTimer.Stop()
			}
			if h.done.HasWaiters() {
				ep.cpus.Proto.SubmitArg(ep.env, ep.costs.UserWake, ep.fireSigFn, &h.done)
			} else {
				h.done.Fire(ep.env)
			}
			if h.cq {
				h.c.pushCompletion(Completion{OpID: h.opID, Op: h.op})
			}
		}
	}
	if collected {
		c.rxFree = append(c.rxFree, op)
	}
}

// serveRead services a remote read request: snapshot the requested
// memory and send it back as a ReadReply operation whose Remote is the
// requester's destination address and whose Local carries the
// requester's read operation id (IPPS'07 §2.2-2.3).
func (c *Conn) serveRead(h frame.Header) {
	ep := c.ep
	end := h.Remote + uint64(h.Total)
	if end > uint64(len(ep.mem)) {
		panic(fmt.Sprintf("core: node %d read source [%d,%d) outside memory", ep.node, h.Remote, end))
	}
	ep.Stats.ReadsServed++
	// Small reply snapshots ride a pooled buffer (released with the
	// reply txOp's data at completion); larger ones fall back to the
	// heap.
	var data []byte
	var dataBuf *frame.Buf
	if h.Total > 0 && h.Total <= frame.BufCap {
		dataBuf = frame.GetBuf()
		data = append(dataBuf.Bytes()[:0], ep.mem[h.Remote:end]...)
	} else {
		data = append([]byte(nil), ep.mem[h.Remote:end]...)
	}
	t := &txOp{
		id: c.nextOpID, opType: frame.OpReadReply,
		remote: h.Local, local: h.OpID,
		data: data, dataBuf: dataBuf,
		total: h.Total,
	}
	// The reply txOp continues the requester's read span: its frame
	// transmissions, retransmits and ACKs all belong to that read.
	if sp := c.frameSpan(h.OpType, h.OpID, h.Local); sp != nil {
		sp.Event(ep.env.Now(), obs.EvReadServe, ep.node, -1, h.Seq, int(h.Total))
		t.span = sp
	}
	c.nextOpID++
	c.txOps = append(c.txOps, t)
	ep.Stats.OpsStarted++
	c.kick()
}
