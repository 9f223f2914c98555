package core

// Health snapshots: point-in-time views of an endpoint and its
// connections for live introspection (obs.EndpointHealth JSON, the
// periodic health sampler, and medbench health timelines). Taking a
// snapshot is pure observation — it reads live protocol state and
// never touches timers, RNG, or the wire — so sampling cannot perturb
// a deterministic run.

import "multiedge/internal/obs"

// Health returns the connection's point-in-time health.
func (c *Conn) Health() obs.ConnHealth {
	h := obs.ConnHealth{
		Conn:        c.localID,
		Peer:        c.remoteNode,
		State:       c.healthState(),
		Incarnation: c.incarnation,
		Reconnects:  c.reconnTotal,
		SRTTUs:      float64(c.srtt) / 1000,
		RTTVarUs:    float64(c.rttvar) / 1000,
		RTOUs:       float64(c.currentRTO()) / 1000,
		Inflight:    c.inflight(),
		Window:      c.ep.cfg.Window,
		Cwnd:        c.cwnd,
		SQDepth:     len(c.sq),
		CQDepth:     c.cq.Len(),
		BytesAcked:  c.bytesAcked,
	}
	h.Rails = make([]obs.RailHealth, c.links)
	for li := 0; li < c.links; li++ {
		h.Rails[li] = obs.RailHealth{
			SRTTUs:   float64(c.railSrtt[li]) / 1000,
			RTTVarUs: float64(c.railRttvar[li]) / 1000,
			RTOUs:    float64(c.railRTO(li)) / 1000,
		}
	}
	// Journal length: what a reconnect would replay — queued/in-flight
	// send ops plus pending reads whose requests were already fully
	// acknowledged (a read mid-request appears in txOps too; dedupe).
	h.JournalOps = len(c.txOps)
	for id := range c.pendingReads {
		inTx := false
		for _, t := range c.txOps {
			if t.id == id {
				inTx = true
				break
			}
		}
		if !inTx {
			h.JournalOps++
		}
	}
	return h
}

// healthState names the connection's lifecycle state.
func (c *Conn) healthState() string {
	switch {
	case c.failed:
		return "failed"
	case c.closed:
		return "closed"
	case c.reconnecting:
		return "reconnecting"
	case !c.established.Fired():
		return "dialing"
	}
	return "established"
}

// Health returns the endpoint's point-in-time health, including every
// tabled connection in stable (dial/accept) order.
func (ep *Endpoint) Health() obs.EndpointHealth {
	h := obs.EndpointHealth{
		At:           ep.env.Now(),
		Node:         ep.node,
		ActiveConns:  ep.conns.len(),
		WheelEntries: ep.wheel.Len(),
	}
	h.SchedCtrlQ, h.SchedSendQ = ep.schedDepth()
	for _, c := range ep.conns.sorted() {
		h.Conns = append(h.Conns, c.Health())
	}
	return h
}
