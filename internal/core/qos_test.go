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
