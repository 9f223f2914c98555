package core_test

import (
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/race"
	"multiedge/internal/sim"
)

// This file gates the zero-allocation hot-path contract (DESIGN.md §13):
// after warmup, a steady-state operation allocates at most the one
// user-held Handle (which embeds its txOp). Everything else — frames,
// events, timers, receive records, scheduler queues, completion
// staging — must recycle.
//
// The measurements run testing.AllocsPerRun from inside a simulated
// process. While that process is parked in Wait/WaitCQ, the scheduler
// cooperatively runs every other simulated actor (protocol threads,
// NICs, the remote endpoint), so the counted window spans the WHOLE
// pipeline: submit, wire, receive dispatch, acknowledgement, and
// completion delivery — not just the caller's side.

// gateAllocs asserts a steady-state allocation budget. Under the race
// detector the instrumentation itself allocates, so the loops still run
// (exercising the recycling paths for the detector) but the count
// assertion is skipped.
func gateAllocs(t *testing.T, name string, got, limit float64) {
	t.Helper()
	t.Logf("%s: %.2f allocs/op (budget %.0f)", name, got, limit)
	if race.Enabled {
		t.Logf("race detector enabled; skipping allocation count assertion")
		return
	}
	if got > limit {
		t.Errorf("%s: %.2f allocs/op, budget %.0f", name, got, limit)
	}
}

// allocPair builds a loss-free two-node cluster with src/dst windows
// ready for steady-state op loops.
func allocPair(t *testing.T, cfg cluster.Config) (cl *cluster.Cluster, c01 *core.Conn, src, dst uint64) {
	t.Helper()
	cl, c01, _ = pairCluster(t, cfg)
	const window = 64 * 1024
	src = cl.Nodes[0].EP.Alloc(window)
	dst = cl.Nodes[1].EP.Alloc(window)
	fill(cl.Nodes[0].EP.Mem()[src:src+window], 5)
	return cl, c01, src, dst
}

// runMeasured spawns body as a process, runs the cluster, and fails the
// test if the measurement never finished.
func runMeasured(t *testing.T, cl *cluster.Cluster, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	cl.Env.Go("measure", func(p *sim.Proc) {
		body(p)
		done = true
	})
	cl.Env.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("measured workload did not complete")
	}
}

// TestAllocsEagerWrite gates the eager Do+Wait write loop at one
// allocation per operation: the Handle. The wait/wake round trip, the
// payload snapshot, every frame on the wire, and the receiver's whole
// dispatch path must be allocation-free.
func TestAllocsEagerWrite(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	op := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpWrite}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, op).Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c01.MustDo(p, op).Wait(p)
		})
	})
	gateAllocs(t, "eager write+wait", allocs, 1)
}

// TestAllocsSQBatch gates the doorbell path — Post a batch, Ring, drain
// the completion queue — at one allocation per operation (each posted
// descriptor still surfaces one Handle internally). Submission-queue
// double-buffering, ring-time snapshots, completion staging, and the
// CQ mailbox must all recycle.
func TestAllocsSQBatch(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	cl, c01, src, dst := allocPair(t, cfg)
	const batch = 8
	step := func(p *sim.Proc) {
		for i := 0; i < batch; i++ {
			c01.MustPost(core.Op{
				Remote: dst + uint64(i*256), Local: src + uint64(i*256),
				Size: 192, Kind: frame.OpWrite,
			})
		}
		c01.MustRing(p)
		for i := 0; i < batch; i++ {
			if comp := c01.WaitCQ(p); comp.Err != nil {
				t.Errorf("completion error: %v", comp.Err)
			}
		}
	}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			step(p)
		}
		allocs = testing.AllocsPerRun(50, func() { step(p) })
	})
	gateAllocs(t, "SQ batch post+ring+drain", allocs/batch, 1)
}

// TestAllocsEagerRead documents the read budget: two allocations per
// operation — the requester's Handle plus the responder's synthesized
// txOp in serveRead, which has no user handle to embed into. The reply
// payload itself snapshots into a pooled buffer.
func TestAllocsEagerRead(t *testing.T) {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = 3
	// Each read re-arms the reply liveness guard; the stopped guard's
	// canceled event is recycled when its deadline surfaces, so the
	// event pool reaches steady state only after one DeadInterval of
	// simulated time. Shrink it so the warmup loop covers that.
	cfg.Core.DeadInterval = 500 * sim.Microsecond
	cl, c01, src, dst := allocPair(t, cfg)
	op := core.Op{Remote: dst, Local: src, Size: 512, Kind: frame.OpRead}
	var allocs float64
	runMeasured(t, cl, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			c01.MustDo(p, op).Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c01.MustDo(p, op).Wait(p)
		})
	})
	gateAllocs(t, "eager read+wait", allocs, 2)
}
