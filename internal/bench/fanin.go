package bench

import (
	"bytes"
	"fmt"
	"strings"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Fan-in stress: many client connections converging on one server
// endpoint, the workload ISSUE 4's endpoint-scaling work exists for.
// Every run drives the scaled configuration (connection scheduler +
// timer wheel + submission queue), byte-verifies every transfer, and
// closes every connection at the end so the post-run leak gate can
// assert that the event queue drained and the server's connection table
// emptied.

// FaninOptions parameterizes one fan-in run.
type FaninOptions struct {
	Conns      int  // client connections converging on the server
	OpsPerConn int  // closed-loop operations per connection
	Size       int  // bytes per operation
	Chaos      bool // inject loss/dup bursts mid-run
	Seed       int64

	// Obs composes the observability registry (metrics, spans, health
	// sampling) into the run; the zero value keeps it off. The flight
	// recorder is attached regardless — recording is pure observation —
	// unless DisableRecorder (for overhead A/B measurements).
	Obs             cluster.ObsOptions
	DisableRecorder bool

	// inject, when set, schedules extra faults on the run's chaos runner
	// before the simulation starts (tests kill the server mid-run).
	inject func(*chaos.Runner)
}

// FaninResult is one fan-in measurement plus its correctness gates.
type FaninResult struct {
	Conns       int
	ClientNodes int
	latency     // closed-loop op latency over the post-barrier window
	gates
	Net cluster.NetReport
	artifacts
}

// faninSlots is the per-connection pipeline depth: eager conns rotate
// writes/reads over this many buffer slots, SQ conns post one doorbell
// batch of this size.
const faninSlots = 8

func faninFill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*31
	}
}

// RunFanin drives opts.Conns client connections against node 0. The
// connections are spread over up to 64 client nodes behind one switch
// and run three workload flavours round-robin: eager remote writes,
// eager remote reads, and submission-queue write batches. Each
// connection is closed when its operations complete; the result's gate
// fields report whether anything survived the teardown.
func RunFanin(opts FaninOptions) FaninResult {
	conns := opts.Conns
	if conns < 1 {
		conns = 1
	}
	clientNodes := conns
	if clientNodes > 64 {
		clientNodes = 64
	}
	cfg := cluster.OneLink1G(1 + clientNodes)
	cfg.Seed = opts.Seed
	// The scaled endpoint: coalesced timers, submission queues.
	cfg.Core.TimerWheelTick = 50 * sim.Microsecond
	cfg.Core.UseSQ = true
	// The default 16 MB address space times hundreds of nodes is real
	// host memory; size it to the working set instead.
	cfg.Core.MemBytes = conns*faninSlots*opts.Size + (1 << 20)
	h := newHarness("fanin", cfg, opts.Obs, opts.DisableRecorder)
	cl, server := h.cl, h.cl.Nodes[0].EP
	if opts.Chaos {
		// A loss burst on the server rail hits every connection at
		// once; bursts on the first client rails add asymmetric repair
		// load; a duplication window exercises the receive-side dedup.
		runner := h.chaos()
		runner.LossBurst(500*sim.Microsecond, 3*sim.Millisecond, 0, 0, 0.02)
		for n := 1; n <= clientNodes && n <= 4; n++ {
			from := sim.Time(n) * 300 * sim.Microsecond
			runner.LossBurst(from, from+sim.Millisecond, n, 0, 0.05)
		}
		runner.DuplicateEveryNth(sim.Millisecond, 2*sim.Millisecond, 1, 0, 7)
	}
	h.inject(opts.inject)

	h.parties = conns
	finished, opsDone := 0, 0
	verified := true

	for j := 0; j < conns; j++ {
		j := j
		node := 1 + j%clientNodes
		ep := cl.Nodes[node].EP
		cl.Env.Go(fmt.Sprintf("fanin%d", j), func(p *sim.Proc) {
			c := ep.Dial(p, 0, 0)
			// Remote (server) and local working sets for this conn.
			remote := server.Alloc(faninSlots * opts.Size)
			local := ep.Alloc(faninSlots * opts.Size)
			seed := byte(37 + j)
			mode := j % 3
			if mode == 1 {
				faninFill(server.Mem()[remote:remote+uint64(faninSlots*opts.Size)], seed)
			} else {
				faninFill(ep.Mem()[local:local+uint64(faninSlots*opts.Size)], seed)
			}
			// Barrier: measure steady state, not the dial storm.
			h.arrive(p)

			// A failed operation (issue error, handle or completion error)
			// stops the conn's workload and fails the DataOK gate: only
			// successful operations count as done.
			fail := func(n int, err error) { h.fail(n, fmt.Errorf("conn %d: %w", j, err)) }
			switch mode {
			case 0, 1: // eager remote writes / eager remote reads
				op := core.Op{Size: opts.Size, Kind: frame.OpWrite, Flags: frame.Solicit}
				if mode == 1 {
					op = core.Op{Size: opts.Size, Kind: frame.OpRead}
				}
				for k := 0; k < opts.OpsPerConn; k++ {
					off := uint64(k % faninSlots * opts.Size)
					op.Remote, op.Local = remote+off, local+off
					t0 := cl.Env.Now()
					if err := doWait(p, c, op); err != nil {
						fail(1, err)
						break
					}
					h.rec.Record(cl.Env.Now() - t0)
					opsDone++
				}
			default: // submission-queue write batches
				for done := 0; done < opts.OpsPerConn; {
					n := faninSlots
					if opts.OpsPerConn-done < n {
						n = opts.OpsPerConn - done
					}
					t0 := cl.Env.Now()
					if bad, err := postBatch(p, c, remote, local, opts.Size, n); bad > 0 {
						fail(bad, err)
						break
					}
					h.rec.Record(cl.Env.Now() - t0)
					opsDone += n
					done += n
				}
			}

			// Byte-verify the touched slots before teardown.
			touched := opts.OpsPerConn
			if touched > faninSlots {
				touched = faninSlots
			}
			nb := uint64(touched * opts.Size)
			if !bytes.Equal(server.Mem()[remote:remote+nb], ep.Mem()[local:local+nb]) {
				verified = false
			}
			if finished++; finished == conns {
				h.end = cl.Env.Now()
			}
			c.Close(p)
		})
	}
	h.drain(600 * sim.Second)

	r := FaninResult{Conns: conns, ClientNodes: clientNodes,
		latency: h.summary(opsDone, opts.Size), Net: cl.Collect()}
	r.gates, r.artifacts = h.verdict(verified && h.failed == 0 && finished == conns &&
		opsDone == conns*opts.OpsPerConn, "")
	return r
}

func (r FaninResult) String() string {
	return fmt.Sprintf("%5d conns/%2d nodes  %7d ops  %9.3fms  %9.0f ops/s  %7.1f MB/s  p50 %7.1fus  p99 %8.1fus  %s",
		r.Conns, r.ClientNodes, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.GoodMB, r.P50Us, r.P99Us, r.column())
}

// RenderFanin sweeps the connection counts, printing one row per run
// plus the ops/s scaling factor relative to the single-connection
// baseline. ok is false if any run corrupted data or leaked post-close
// state — the caller should exit nonzero. The results slice carries one
// entry per run for bench-trajectory output and observability export;
// obsOpts composes the registry into every run (zero value = off).
func RenderFanin(connCounts []int, opsPerConn, size int, withChaos bool, obsOpts cluster.ObsOptions) (out string, ok bool, results []FaninResult) {
	var b strings.Builder
	chaosNote := ""
	if withChaos {
		chaosNote = ", loss/dup chaos bursts on"
	}
	fmt.Fprintf(&b, "Fan-in scaling: N client conns -> 1 server endpoint, 1L-1G, %d closed-loop ops/conn x %dB\n", opsPerConn, size)
	fmt.Fprintf(&b, "(mixed eager-write / eager-read / SQ-batch workloads; TimerWheel+SQ on%s)\n\n", chaosNote)
	ok = true
	var base float64
	for _, n := range connCounts {
		r := RunFanin(FaninOptions{Conns: n, OpsPerConn: opsPerConn, Size: size, Chaos: withChaos, Seed: 42, Obs: obsOpts})
		results = append(results, r)
		scale := ""
		if base == 0 && r.OpsPerSec > 0 {
			base = r.OpsPerSec
		} else if base > 0 {
			scale = fmt.Sprintf("  %5.2fx", r.OpsPerSec/base)
		}
		ok = printRow(&b, r, scale) && ok
	}
	if !ok {
		fmt.Fprintf(&b, "\nFAIL: a run corrupted data or leaked post-close state\n")
	}
	return b.String(), ok, results
}
