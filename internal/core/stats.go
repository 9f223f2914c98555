package core

import (
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// Stats counts protocol-level events at one endpoint. The paper's §4
// network-level analysis is computed from these counters plus the NIC
// and switch counters in internal/phys.
type Stats struct {
	// Operations.
	OpsStarted   uint64
	OpsCompleted uint64
	ReadsServed  uint64
	Notifies     uint64

	// Submission-queue path.
	Doorbells       uint64 // Ring calls that issued at least one descriptor
	SQOps           uint64 // descriptors issued via doorbells
	CoalescedFrames uint64 // MultiData container frames created
	CoalescedSubOps uint64 // small writes packed into MultiData frames

	// Send path.
	DataFramesSent  uint64
	DataBytesSent   uint64 // payload bytes in data frames, first transmissions
	CtrlAcksSent    uint64 // explicit acknowledgement frames
	CtrlNacksSent   uint64 // explicit negative-acknowledgement frames
	Retransmissions uint64 // data frames transmitted again
	LinkDeadEvents  uint64 // links declared dead by the sender
	LinkRestores    uint64 // dead links re-admitted after a probed frame was acked

	// Receive path.
	DataFramesRecv uint64
	DataBytesRecv  uint64
	CtrlRecv       uint64
	Duplicates     uint64 // frames already received (ARQ dedupe)
	GbnDropped     uint64 // out-of-order frames dropped by the go-back-N baseline

	// Reordering.
	Arrivals    uint64 // data-frame arrivals considered for ordering stats
	OOOArrivals uint64 // arrivals with a higher sequence number already seen
	HeldFrames  uint64 // frames buffered awaiting order/fences
	HoldMax     int    // peak held-frame count

	// Failure handling.
	RttSamples         uint64 // ack-derived round-trip samples fed to the estimator
	RtoExpiries        uint64 // retransmission-timeout firings
	RtoBackoffMax      int    // peak consecutive-expiry depth (backoff exponent)
	PeerDeadEvents     uint64 // connections transitioned to Failed
	ResetsSent         uint64 // Reset ctrl frames emitted on peer death
	ResetsRecv         uint64 // Reset ctrl frames received (peer abandoned the conn)
	HeartbeatsSent     uint64 // idle-liveness ctrl frames sent
	HeartbeatsRecv     uint64 // idle-liveness ctrl frames received
	OpsFailed          uint64 // operations completed with an error (peer death, deadline)
	OpDeadlinesExpired uint64 // operations whose Op.Deadline released the waiter
	DupFramesDropped   uint64 // duplicate payload-bearing frames dropped before apply
	NackGapsDropped    uint64 // gaps left untracked because the missing-list cap was hit

	// Recovery (Config.Reconnect).
	StaleEpochDrops  uint64 // frames fenced for carrying a dead incarnation
	Reconnects       uint64 // supervised reconnects that re-established the conn
	ReconnectsFailed uint64 // conns that exhausted MaxReconnects and died for real
	ReplayedOps      uint64 // journaled ops re-issued after a reconnect
	ReplayedBytes    uint64 // payload bytes re-issued by replay
	Abandons         uint64 // conns terminally failed by Conn.Abandon (svc failover)

	// Class scheduler and admission (Config.QoS). Per-class breakdowns
	// are published by the endpoint's qos collector when classes are
	// configured; these flat totals feed the cluster-wide aggregation
	// and diff reports. Admissions and scheduled frames count on every
	// endpoint — without Config.QoS under the one implicit class.
	QosOpsAdmitted    uint64 // operations admitted into a class (every issued or posted op)
	QosOpsThrottled   uint64 // fail-fast submissions refused with ErrThrottled
	QosAdmissionWaits uint64 // blocking submissions that had to wait for room
	QosRateDeferrals  uint64 // scheduler visits deferred by an empty token bucket
	QosSchedFrames    uint64 // data frames dispatched by the DWFQ scheduler (every data send)

	// Congestion control (Config.CongestionControl). The ECN counters
	// tick whenever marks flow (a switch threshold is armed), even with
	// the window reaction off — echoes are wire facts either way.
	EcnMarksSeen     uint64 // congestion-marked frames taken off the wire
	EcnEchoesSent    uint64 // ack-bearing frames that carried the echo flag
	EcnEchoesRecv    uint64 // echoes received back as congestion signals
	CcCwndCuts       uint64 // multiplicative decreases (ECN echo or RTO)
	CcRetxDeferred   uint64 // retransmission rounds deferred by the repair budget
	CcOpsThrottled   uint64 // fail-fast submissions refused by window backpressure
	CcAdmissionWaits uint64 // blocking submissions that waited for window room
	CcRailProbes     uint64 // per-rail RTT probes sent (multi-rail conns)

	// CPU time charged on the application CPU on behalf of the
	// protocol (operation initiation: syscall, descriptor, copy).
	AppProtoTime sim.Time
}

// ExtraFrames returns explicit-ACK + NACK + retransmitted frames: the
// paper's "extra traffic" beyond first-transmission data frames.
func (s *Stats) ExtraFrames() uint64 {
	return s.CtrlAcksSent + s.CtrlNacksSent + s.Retransmissions
}

// ExtraTrafficFraction returns extra frames as a fraction of all frames
// sent (the paper reports at most 5.5% in micro-benchmarks and 15% in
// applications).
func (s *Stats) ExtraTrafficFraction() float64 {
	total := s.DataFramesSent + s.ExtraFrames()
	if total == 0 {
		return 0
	}
	return float64(s.ExtraFrames()) / float64(total)
}

// OOOFraction returns the fraction of data-frame arrivals that were out
// of order (≈0 on single links, 45-50% under two-link round-robin in the
// paper).
func (s *Stats) OOOFraction() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.OOOArrivals) / float64(s.Arrivals)
}

// Add accumulates other into s (for cluster-wide aggregation).
func (s *Stats) Add(o *Stats) {
	s.OpsStarted += o.OpsStarted
	s.OpsCompleted += o.OpsCompleted
	s.ReadsServed += o.ReadsServed
	s.Notifies += o.Notifies
	s.Doorbells += o.Doorbells
	s.SQOps += o.SQOps
	s.CoalescedFrames += o.CoalescedFrames
	s.CoalescedSubOps += o.CoalescedSubOps
	s.DataFramesSent += o.DataFramesSent
	s.DataBytesSent += o.DataBytesSent
	s.CtrlAcksSent += o.CtrlAcksSent
	s.CtrlNacksSent += o.CtrlNacksSent
	s.Retransmissions += o.Retransmissions
	s.LinkDeadEvents += o.LinkDeadEvents
	s.LinkRestores += o.LinkRestores
	s.DataFramesRecv += o.DataFramesRecv
	s.DataBytesRecv += o.DataBytesRecv
	s.CtrlRecv += o.CtrlRecv
	s.Duplicates += o.Duplicates
	s.GbnDropped += o.GbnDropped
	s.Arrivals += o.Arrivals
	s.OOOArrivals += o.OOOArrivals
	s.HeldFrames += o.HeldFrames
	if o.HoldMax > s.HoldMax {
		s.HoldMax = o.HoldMax
	}
	s.RttSamples += o.RttSamples
	s.RtoExpiries += o.RtoExpiries
	if o.RtoBackoffMax > s.RtoBackoffMax {
		s.RtoBackoffMax = o.RtoBackoffMax
	}
	s.PeerDeadEvents += o.PeerDeadEvents
	s.ResetsSent += o.ResetsSent
	s.ResetsRecv += o.ResetsRecv
	s.HeartbeatsSent += o.HeartbeatsSent
	s.HeartbeatsRecv += o.HeartbeatsRecv
	s.OpsFailed += o.OpsFailed
	s.OpDeadlinesExpired += o.OpDeadlinesExpired
	s.DupFramesDropped += o.DupFramesDropped
	s.NackGapsDropped += o.NackGapsDropped
	s.StaleEpochDrops += o.StaleEpochDrops
	s.Reconnects += o.Reconnects
	s.ReconnectsFailed += o.ReconnectsFailed
	s.ReplayedOps += o.ReplayedOps
	s.ReplayedBytes += o.ReplayedBytes
	s.Abandons += o.Abandons
	s.QosOpsAdmitted += o.QosOpsAdmitted
	s.QosOpsThrottled += o.QosOpsThrottled
	s.QosAdmissionWaits += o.QosAdmissionWaits
	s.QosRateDeferrals += o.QosRateDeferrals
	s.QosSchedFrames += o.QosSchedFrames
	s.EcnMarksSeen += o.EcnMarksSeen
	s.EcnEchoesSent += o.EcnEchoesSent
	s.EcnEchoesRecv += o.EcnEchoesRecv
	s.CcCwndCuts += o.CcCwndCuts
	s.CcRetxDeferred += o.CcRetxDeferred
	s.CcOpsThrottled += o.CcOpsThrottled
	s.CcAdmissionWaits += o.CcAdmissionWaits
	s.CcRailProbes += o.CcRailProbes
	s.AppProtoTime += o.AppProtoTime
}

// Collector publishes the endpoint's counters into an obs.Registry at
// gather time. Polling the live struct (rather than double-counting on
// the hot path) keeps instrumentation free when observability is off
// and guarantees the registry always matches these legacy counters.
func (s *Stats) Collector(node int) obs.Collector {
	nl := obs.NodeLabel(node)
	return func(emit func(obs.Sample)) {
		c := func(name string, v uint64) {
			emit(obs.Sample{Name: name, Labels: []obs.Label{nl}, Value: float64(v), Type: obs.TypeCounter})
		}
		c("core_ops_started_total", s.OpsStarted)
		c("core_ops_completed_total", s.OpsCompleted)
		c("core_reads_served_total", s.ReadsServed)
		c("core_notifies_total", s.Notifies)
		c("core_doorbells_total", s.Doorbells)
		c("core_sq_ops_total", s.SQOps)
		c("core_coalesced_frames_total", s.CoalescedFrames)
		c("core_coalesced_subops_total", s.CoalescedSubOps)
		c("core_data_frames_sent_total", s.DataFramesSent)
		c("core_data_bytes_sent_total", s.DataBytesSent)
		c("core_ctrl_acks_sent_total", s.CtrlAcksSent)
		c("core_ctrl_nacks_sent_total", s.CtrlNacksSent)
		c("core_retransmissions_total", s.Retransmissions)
		c("core_link_dead_events_total", s.LinkDeadEvents)
		c("core_link_restores_total", s.LinkRestores)
		c("core_data_frames_recv_total", s.DataFramesRecv)
		c("core_data_bytes_recv_total", s.DataBytesRecv)
		c("core_ctrl_recv_total", s.CtrlRecv)
		c("core_duplicates_total", s.Duplicates)
		c("core_gbn_dropped_total", s.GbnDropped)
		c("core_arrivals_total", s.Arrivals)
		c("core_ooo_arrivals_total", s.OOOArrivals)
		c("core_held_frames_total", s.HeldFrames)
		c("core_rtt_samples_total", s.RttSamples)
		c("core_rto_expiries_total", s.RtoExpiries)
		c("core_peer_dead_events_total", s.PeerDeadEvents)
		c("core_resets_sent_total", s.ResetsSent)
		c("core_resets_recv_total", s.ResetsRecv)
		c("core_heartbeats_sent_total", s.HeartbeatsSent)
		c("core_heartbeats_recv_total", s.HeartbeatsRecv)
		c("core_ops_failed_total", s.OpsFailed)
		c("core_op_deadlines_expired_total", s.OpDeadlinesExpired)
		c("core_dup_frames_dropped_total", s.DupFramesDropped)
		c("core_nack_gaps_dropped_total", s.NackGapsDropped)
		c("core_stale_epoch_drops_total", s.StaleEpochDrops)
		c("core_reconnects_total", s.Reconnects)
		c("core_reconnects_failed_total", s.ReconnectsFailed)
		c("core_replayed_ops_total", s.ReplayedOps)
		c("core_replayed_bytes_total", s.ReplayedBytes)
		c("core_abandons_total", s.Abandons)
		c("core_qos_ops_admitted_total", s.QosOpsAdmitted)
		c("core_qos_ops_throttled_total", s.QosOpsThrottled)
		c("core_qos_admission_waits_total", s.QosAdmissionWaits)
		c("core_qos_rate_deferrals_total", s.QosRateDeferrals)
		c("core_qos_sched_frames_total", s.QosSchedFrames)
		c("cc_ecn_marks_seen_total", s.EcnMarksSeen)
		c("cc_ecn_echoes_sent_total", s.EcnEchoesSent)
		c("cc_ecn_echoes_recv_total", s.EcnEchoesRecv)
		c("cc_cwnd_cuts_total", s.CcCwndCuts)
		c("cc_retx_deferred_total", s.CcRetxDeferred)
		c("cc_ops_throttled_total", s.CcOpsThrottled)
		c("cc_admission_waits_total", s.CcAdmissionWaits)
		c("cc_rail_probes_total", s.CcRailProbes)
		emit(obs.Sample{Name: "core_hold_max", Labels: []obs.Label{nl},
			Value: float64(s.HoldMax), Type: obs.TypeGauge})
		emit(obs.Sample{Name: "core_rto_backoff_max", Labels: []obs.Label{nl},
			Value: float64(s.RtoBackoffMax), Type: obs.TypeGauge})
		emit(obs.Sample{Name: "core_app_proto_time_ns", Labels: []obs.Label{nl},
			Value: float64(s.AppProtoTime), Type: obs.TypeCounter})
	}
}
