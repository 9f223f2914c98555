package bench

import (
	"bytes"
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Small-operation throughput: the workload the submission-queue path
// exists for. Millions of tiny one-way writes pay the full per-op host
// issue cost (syscall + descriptor + copy) on the eager path; the SQ
// path posts descriptors cheaply, charges one doorbell per batch and
// coalesces the writes into shared MultiData frames, so both the host
// issue cost and the per-frame protocol/wire overhead amortize.

// SmallOpResult is one small-op throughput measurement.
type SmallOpResult struct {
	Config string
	Size   int     // bytes per operation
	Count  int     // operations measured
	Batch  int     // ops per doorbell; 0 = eager per-op issue
	MOpsS  float64 // completed operations only
	GoodMB float64 // payload goodput, MB/s
	// Verdict: operations that failed to issue or complete, and whether
	// the destination lanes byte-match the source after the run.
	Failed int
	DataOK bool
	// Protocol evidence.
	Doorbells       uint64
	CoalescedFrames uint64
	DataFrames      uint64
}

func (r SmallOpResult) String() string {
	mode := "eager"
	if r.Batch > 0 {
		mode = fmt.Sprintf("sq/batch=%d", r.Batch)
	}
	s := fmt.Sprintf("%-7s %-12s %4dB x%-6d  %6.3f Mops/s  %7.1f MB/s  doorbells=%d coalesced-frames=%d data-frames=%d",
		r.Config, mode, r.Size, r.Count, r.MOpsS, r.GoodMB, r.Doorbells, r.CoalescedFrames, r.DataFrames)
	if !r.passed() {
		s += fmt.Sprintf("  FAILED ops=%d data-ok=%v", r.Failed, r.DataOK)
	}
	return s
}

func (r SmallOpResult) passed() bool { return r.Failed == 0 && r.DataOK }

// tailSolicit marks the last operation of a batch Solicit so batch
// completion costs one round trip instead of an AckDelay, in both
// modes (the same idiom the block-storage mirror uses for commits).
func tailSolicit(i, n int) frame.OpFlags {
	if i == n-1 {
		return frame.Solicit
	}
	return 0
}

// RunSmallOps measures one-way small-write throughput on cfg. batch = 0
// issues every operation eagerly (Do); batch > 0 routes them through
// the submission queue, ringing the doorbell every batch posts and
// draining the completion queue per batch. The first failed issue or
// completion stops the run: the unfinished operations count as failed
// and only completed ones count toward the rate.
func RunSmallOps(cfg cluster.Config, size, count, batch int) SmallOpResult {
	if batch > 0 {
		cfg.Core.UseSQ = true
		cfg.Core.CoalesceLimit = size
	}
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	lanes := batch
	if lanes <= 0 {
		lanes = 64 // eager pipelining depth, matched to the SQ batch
	}
	src := ep0.Alloc(size * lanes)
	dst := ep1.Alloc(size * lanes)
	faninFill(ep0.Mem()[src:src+uint64(size*lanes)], 5) // nonzero, so a lost write fails the byte check

	var start, end sim.Time
	var prev, net cluster.NetReport
	completed := 0
	cl.Env.Go("smallops", func(p *sim.Proc) {
		// Warm up the path.
		if doWait(p, c01, core.Op{Remote: dst, Local: src, Size: size, Kind: frame.OpWrite}) != nil {
			return
		}
		start = cl.Env.Now()
		prev = cl.Collect()
		hs := make([]*core.Handle, 0, lanes)
		for bad := 0; completed < count && bad == 0; {
			n := lanes
			if count-completed < n {
				n = count - completed
			}
			// The result reports the failed count only: it stays
			// ==-comparable, so it keeps no error value.
			if batch > 0 {
				bad, _ = postBatch(p, c01, dst, src, size, n)
			} else {
				bad = doBatch(p, c01, hs, dst, src, size, n)
			}
			completed += n - bad
		}
		end = cl.Env.Now()
		net = cl.Collect().Sub(prev)
	})
	cl.Env.RunUntil(600 * sim.Second)
	r := SmallOpResult{Config: cfg.Name, Size: size, Count: count, Batch: batch, Failed: count - completed}
	if elapsed := end - start; elapsed > 0 {
		r.MOpsS = float64(completed) / 1e6 / elapsed.Seconds()
		r.GoodMB = float64(size*completed) / 1e6 / elapsed.Seconds()
	}
	// Every batch writes the same source lanes, so after the run each
	// touched destination lane must equal its source.
	touched := lanes
	if count < touched {
		touched = count
	}
	nb := uint64(size * touched)
	r.DataOK = bytes.Equal(ep1.Mem()[dst:dst+nb], ep0.Mem()[src:src+nb])
	r.Doorbells = ep0.Stats.Doorbells
	r.CoalescedFrames = ep0.Stats.CoalescedFrames
	r.DataFrames = net.Proto.DataFramesSent
	return r
}

// RenderSmallOps prints the eager-versus-batched small-op comparison on
// the paper's 1L-10G configuration (the setup where host issue cost,
// not the wire, bounds small-message rate). ok is false if any run
// failed an operation or corrupted data — the caller should exit
// nonzero. The results slice carries one entry per run for
// bench-trajectory output.
func RenderSmallOps(count int) (out string, ok bool, results []SmallOpResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "Small-operation throughput, 1L-10G, %d one-way writes per run\n", count)
	fmt.Fprintf(&b, "(batched = submission queue + doorbell batching + frame coalescing)\n\n")
	ok = true
	for _, size := range []int{16, 64, 256} {
		eager := RunSmallOps(cluster.OneLink10G(2), size, count, 0)
		sq := RunSmallOps(cluster.OneLink10G(2), size, count, 64)
		results = append(results, eager, sq)
		ok = ok && eager.passed() && sq.passed()
		fmt.Fprintf(&b, "  %s\n  %s\n", eager, sq)
		if eager.MOpsS > 0 {
			fmt.Fprintf(&b, "  -> %.2fx op rate\n\n", sq.MOpsS/eager.MOpsS)
		}
	}
	if !ok {
		fmt.Fprintf(&b, "\nFAIL: a run failed operations or corrupted data\n")
	}
	return b.String(), ok, results
}
