package core_test

import (
	"errors"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// qosPair builds an established 2-node pair whose node-0 endpoint runs
// the given class table.
func qosPair(t *testing.T, classes ...core.QoSClass) (*cluster.Cluster, *core.Conn) {
	t.Helper()
	cfg := cluster.OneLink1G(2)
	cfg.Core.QoS = classes
	cl, c01, _ := pairCluster(t, cfg)
	return cl, c01
}

// drainCQ sleep-polls c's completion queue until n completions surface.
func drainCQ(p *sim.Proc, c *core.Conn, n int) {
	for got := 0; got < n; {
		if _, ok := c.PollCQ(); ok {
			got++
			continue
		}
		p.Sleep(100 * sim.Microsecond)
	}
}

// TestQoSPostFailFast pins the fail-fast admission contract: Post over
// the class's op quota returns ErrThrottled immediately (no queueing),
// and room reopens once admitted operations complete.
func TestQoSPostFailFast(t *testing.T) {
	cl, c01 := qosPair(t, core.QoSClass{Weight: 1, MaxQueued: 2})
	src := cl.Nodes[0].EP.Alloc(4 << 10)
	dst := cl.Nodes[1].EP.Alloc(4 << 10)
	op := core.Op{Remote: dst, Local: src, Size: 1 << 10, Kind: frame.OpWrite}

	cl.Env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := c01.Post(op); err != nil {
				t.Errorf("post %d within quota: %v", i, err)
			}
		}
		if err := c01.Post(op); !errors.Is(err, core.ErrThrottled) {
			t.Errorf("post over quota = %v; want ErrThrottled", err)
		}
		if _, err := c01.Ring(p); err != nil {
			t.Errorf("ring: %v", err)
		}
		drainCQ(p, c01, 2)
		// Completion released the quota charges: admission reopens.
		if err := c01.Post(op); err != nil {
			t.Errorf("post after drain: %v", err)
		}
		if _, err := c01.Ring(p); err != nil {
			t.Errorf("ring: %v", err)
		}
		drainCQ(p, c01, 1)
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
	if n := cl.Nodes[0].EP.Stats.QosOpsThrottled; n != 1 {
		t.Errorf("QosOpsThrottled = %d; want 1", n)
	}
	if n := cl.Nodes[0].EP.Stats.QosOpsAdmitted; n != 3 {
		t.Errorf("QosOpsAdmitted = %d; want 3", n)
	}
}

// TestQoSByteQuota: the byte quota binds independently of the op
// quota — one admitted operation pinning most of MaxQueuedBytes is
// enough to refuse the next.
func TestQoSByteQuota(t *testing.T) {
	cl, c01 := qosPair(t, core.QoSClass{Weight: 1, MaxQueuedBytes: 6 << 10})
	src := cl.Nodes[0].EP.Alloc(16 << 10)
	dst := cl.Nodes[1].EP.Alloc(16 << 10)
	op := core.Op{Remote: dst, Local: src, Size: 4 << 10, Kind: frame.OpWrite}

	cl.Env.Go("app", func(p *sim.Proc) {
		if err := c01.Post(op); err != nil {
			t.Errorf("first 4KiB post: %v", err)
		}
		if err := c01.Post(op); !errors.Is(err, core.ErrThrottled) {
			t.Errorf("second 4KiB post against a 6KiB byte quota = %v; want ErrThrottled", err)
		}
		if _, err := c01.Ring(p); err != nil {
			t.Errorf("ring: %v", err)
		}
		drainCQ(p, c01, 1)
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
}

// TestQoSDoBlocksAndHonorsDeadline pins the blocking admission
// contract: Do over quota waits for room instead of failing; with an
// Op.Deadline it gives up with ErrDeadlineExceeded when the deadline
// passes first, and without one it proceeds as soon as the quota
// drains.
func TestQoSDoBlocksAndHonorsDeadline(t *testing.T) {
	cl, c01 := qosPair(t, core.QoSClass{Weight: 1, MaxQueued: 1})
	src := cl.Nodes[0].EP.Alloc(8 << 10)
	dst := cl.Nodes[1].EP.Alloc(8 << 10)
	op := core.Op{Remote: dst, Local: src, Size: 1 << 10, Kind: frame.OpWrite}

	cl.Env.Go("app", func(p *sim.Proc) {
		// Pin the quota with a posted-but-unrung descriptor: it holds its
		// admission charge but moves no bytes until Ring.
		if err := c01.Post(op); err != nil {
			t.Errorf("pinning post: %v", err)
		}

		dl := op
		dl.Deadline = cl.Env.Now() + 500*sim.Microsecond
		if _, err := c01.Do(p, dl); !errors.Is(err, core.ErrDeadlineExceeded) {
			t.Errorf("blocked Do with passed deadline = %v; want ErrDeadlineExceeded", err)
		}
		if now := cl.Env.Now(); now < dl.Deadline {
			t.Errorf("deadline admission failure surfaced at %v, before the %v deadline", now, dl.Deadline)
		}

		// Free the quota concurrently; the deadline-free Do must then be
		// admitted and complete.
		cl.Env.Go("drain", func(p2 *sim.Proc) {
			p2.Sleep(2 * sim.Millisecond)
			if _, err := c01.Ring(p2); err != nil {
				t.Errorf("ring: %v", err)
			}
		})
		h, err := c01.Do(p, op)
		if err != nil {
			t.Errorf("blocking Do after drain: %v", err)
		} else {
			h.Wait(p)
			if h.Err() != nil {
				t.Errorf("drained op failed: %v", h.Err())
			}
		}
		drainCQ(p, c01, 1)
		c01.Close(p)
	})
	cl.Env.RunUntil(sim.Second)
	if n := cl.Nodes[0].EP.Stats.QosAdmissionWaits; n != 2 {
		t.Errorf("QosAdmissionWaits = %d; want 2 (deadline waiter + drained waiter)", n)
	}
	if n := cl.Nodes[0].EP.Stats.OpDeadlinesExpired; n != 1 {
		t.Errorf("OpDeadlinesExpired = %d; want 1", n)
	}
}

// TestQoSHealthSchedDepth: Endpoint.Health reports the scheduler depth
// summed over every class queue, so two backlogged tenants read as two
// queued connections instead of an idle scheduler.
func TestQoSHealthSchedDepth(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Core.QoS = []core.QoSClass{{Weight: 1}, {Weight: 1}}
	cl := cluster.New(cfg)
	ep := cl.Nodes[0].EP
	const size = 256 << 10
	src := ep.Alloc(size)
	dst := cl.Nodes[1].EP.Alloc(2 * size)

	peak, finished := 0, 0
	for cls := 0; cls < 2; cls++ {
		cls := cls
		cl.Env.Go("tenant", func(p *sim.Proc) {
			c := ep.Dial(p, 1, 0)
			c.SetClass(cls)
			h, err := c.Do(p, core.Op{Remote: dst + uint64(cls*size), Local: src, Size: size, Kind: frame.OpWrite})
			if err != nil {
				t.Errorf("class %d write: %v", cls, err)
				return
			}
			h.Wait(p)
			finished++
			c.Close(p)
		})
	}
	cl.Env.Go("sampler", func(p *sim.Proc) {
		for finished < 2 {
			h := ep.Health()
			if d := h.SchedCtrlQ + h.SchedSendQ; d > peak {
				peak = d
			}
			p.Sleep(5 * sim.Microsecond)
		}
	})
	cl.Env.RunUntil(sim.Second)
	if finished != 2 {
		t.Fatalf("%d of 2 tenant writes finished", finished)
	}
	if peak < 2 {
		t.Errorf("peak Health scheduler depth = %d with two backlogged classes; want >= 2", peak)
	}
}

// TestQoSOffIsOneClass pins the single-scheduler contract: with
// Config.QoS nil the endpoint runs the same implicit class as an
// explicit one-class table {Weight: 1}, so the two give the identical
// run — traffic report, end time and every endpoint's Stats — on a
// lossy two-rail stream and on a congestion-controlled fan-in whose
// small backlog parks issuers in blocking admission.
func TestQoSOffIsOneClass(t *testing.T) {
	lossy := cluster.TwoLinkUnordered1G(2)
	lossy.Link.LossProb = 0.01
	fanin := cluster.OneLink1G(9)
	fanin.EcnThreshold = 8
	fanin.Core.CongestionControl = core.CCConfig{Enable: true, Backlog: 4}
	cases := []struct {
		name                string
		cfg                 cluster.Config
		connsPerClient, ops int
		size                int
		exercised           func(s core.Stats) bool // the layer the case exists for ran
	}{
		{"lossy-2rail-stream", lossy, 1, 8, 64 << 10,
			func(s core.Stats) bool { return s.Retransmissions > 0 }},
		{"cc-fanin", fanin, 2, 16, 8 << 10,
			func(s core.Stats) bool { return s.CcAdmissionWaits > 0 && s.CcCwndCuts > 0 }},
	}
	type outcome struct {
		net   cluster.NetReport
		end   sim.Time
		stats []core.Stats
	}
	run := func(cfg cluster.Config, connsPerClient, ops, size int) outcome {
		cl := cluster.New(cfg)
		server := cl.Nodes[0].EP
		var end sim.Time
		live := 0
		for n := 1; n < cfg.Nodes; n++ {
			ep := cl.Nodes[n].EP
			for k := 0; k < connsPerClient; k++ {
				live++
				cl.Env.Go("client", func(p *sim.Proc) {
					c := ep.Dial(p, 0, 0)
					src := ep.Alloc(size)
					dst := server.Alloc(ops * size)
					hs := make([]*core.Handle, 0, ops)
					for i := 0; i < ops; i++ {
						h, err := c.Do(p, core.Op{Remote: dst + uint64(i*size), Local: src, Size: size, Kind: frame.OpWrite})
						if err != nil {
							t.Errorf("node %d write %d: %v", ep.Node(), i, err)
							return
						}
						hs = append(hs, h)
					}
					for _, h := range hs {
						h.Wait(p)
						if err := h.Err(); err != nil {
							t.Errorf("node %d write: %v", ep.Node(), err)
						}
					}
					if live--; live == 0 {
						end = cl.Env.Now()
					}
					c.Close(p)
				})
			}
		}
		cl.Env.RunUntil(10 * sim.Second)
		if live != 0 {
			t.Fatalf("%d client conns never finished", live)
		}
		o := outcome{net: cl.Collect(), end: end}
		for _, nd := range cl.Nodes {
			o.stats = append(o.stats, nd.EP.Stats)
		}
		return o
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := run(tc.cfg, tc.connsPerClient, tc.ops, tc.size)
			one := tc.cfg
			one.Core.QoS = []core.QoSClass{{Weight: 1}}
			on := run(one, tc.connsPerClient, tc.ops, tc.size)
			if !tc.exercised(off.net.Proto) {
				t.Fatalf("scenario did not exercise its layer: %+v", off.net.Proto)
			}
			if off.end != on.end {
				t.Errorf("end time: QoS off %v, one class %v", off.end, on.end)
			}
			if off.net != on.net {
				t.Errorf("NetReport differs:\n  off %+v\n  one %+v", off.net, on.net)
			}
			for i := range off.stats {
				if off.stats[i] != on.stats[i] {
					t.Errorf("node %d Stats differ:\n  off %+v\n  one %+v", i, off.stats[i], on.stats[i])
				}
			}
		})
	}
}
