package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// Crash-loop stress: one writer streams verified transfers while the
// peer node crash-restarts in a loop. With Config.Reconnect on, every
// outage longer than DeadInterval parks the connection, redials,
// renegotiates an incarnation and replays the in-flight ops; shorter
// outages are absorbed by plain ARQ retransmission. The bench measures
// time-to-recover — restore of the rails until the first transfer
// completes again — across DeadInterval/backoff settings, and gates on
// zero leaked timers/events/connections after teardown.

// CrashloopOptions parameterizes one crash-loop run.
type CrashloopOptions struct {
	Cycles       int      // crash-restart cycles
	Down         sim.Time // rail downtime per cycle
	DeadInterval sim.Time
	Backoff      sim.Time // reconnect backoff base
	Bytes        int      // bytes per streamed transfer
	Seed         int64

	// Obs composes the observability registry into the run (zero value
	// = off). The flight recorder is attached regardless unless
	// DisableRecorder.
	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// CrashloopResult is one crash-loop measurement plus its gates.
type CrashloopResult struct {
	Opts      CrashloopOptions
	Transfers int // transfers completed and byte-verified

	Reconnects      uint64 // completed incarnation renegotiations (both sides)
	ReplayedOps     uint64
	ReplayedBytes   uint64
	StaleEpochDrops uint64

	Recovered  int      // cycles where service resumed before the give-up horizon
	RecoverP50 sim.Time // restore → first completed transfer
	RecoverMax sim.Time
	EndedAt    sim.Time // virtual time at run end

	gates
	artifacts
}

const crashloopSlots = 4

// RunCrashloop streams writes from node 0 to node 1 while node 1
// crash-restarts opts.Cycles times, then closes the connection and
// reports recovery latency and the leak gates.
func RunCrashloop(o CrashloopOptions) CrashloopResult {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = o.Seed
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = o.DeadInterval
	cfg.Core.HeartbeatInterval = o.DeadInterval / 5
	cfg.Core.ReconnectBackoff = o.Backoff
	// The budget must outlast Down at the smallest backoff base; the
	// point of the loop is recovery, not budget exhaustion.
	cfg.Core.MaxReconnects = 32
	h := newHarness("crashloop", cfg, o.Obs, o.DisableRecorder)
	cl := h.cl
	c01, _ := cl.Pair()

	src := cl.Nodes[0].EP.Alloc(crashloopSlots * o.Bytes)
	dst := cl.Nodes[1].EP.Alloc(crashloopSlots * o.Bytes)
	mem0, mem1 := cl.Nodes[0].EP.Mem(), cl.Nodes[1].EP.Mem()

	var (
		done         bool
		dataOK       = true
		transfers    int
		waitingSince sim.Time // set by the driver at restore; cleared by the writer
		recoveries   []sim.Time
	)
	cl.Env.Go("crashloop-writer", func(p *sim.Proc) {
		for i := 0; !done; i++ {
			off := uint64(i%crashloopSlots) * uint64(o.Bytes)
			faninFill(mem0[src+off:src+off+uint64(o.Bytes)], byte(3+i))
			if err := doWait(p, c01, core.Op{Remote: dst + off, Local: src + off,
				Size: o.Bytes, Kind: frame.OpWrite}); err != nil {
				h.fail(1, err)
				break
			}
			if !bytes.Equal(mem1[dst+off:dst+off+uint64(o.Bytes)],
				mem0[src+off:src+off+uint64(o.Bytes)]) {
				dataOK = false
			}
			transfers++
			if waitingSince > 0 {
				recoveries = append(recoveries, cl.Env.Now()-waitingSince)
				waitingSince = 0
			}
		}
		c01.Close(p)
	})
	// The driver pauses/resumes node 1 and notes each action so a gate
	// failure's post-mortem can interleave causes with effects.
	cl.Env.Go("crashloop-driver", func(p *sim.Proc) {
		defer func() { done = true }()
		for cycle := 0; cycle < o.Cycles; cycle++ {
			p.Sleep(20 * sim.Millisecond) // healthy traffic between crashes
			cl.PauseNode(1)
			h.note(fmt.Sprintf("cycle %d: pause node 1 for %v", cycle, o.Down))
			p.Sleep(o.Down)
			cl.ResumeNode(1)
			h.note(fmt.Sprintf("cycle %d: resume node 1", cycle))
			waitingSince = cl.Env.Now()
			giveUp := cl.Env.Now() + 10*sim.Second
			for waitingSince > 0 && cl.Env.Now() < giveUp {
				p.Sleep(200 * sim.Microsecond)
			}
			if waitingSince > 0 {
				// Service never came back this cycle: stop the loop;
				// Recovered undercounts and fails the row's data gate.
				waitingSince = 0
				return
			}
		}
	})
	endedAt := h.drain(120 * sim.Second)

	st := cl.Nodes[0].EP.Stats
	st1 := cl.Nodes[1].EP.Stats
	r := CrashloopResult{
		Opts:            o,
		Transfers:       transfers,
		Reconnects:      st.Reconnects + st1.Reconnects,
		ReplayedOps:     st.ReplayedOps + st1.ReplayedOps,
		ReplayedBytes:   st.ReplayedBytes + st1.ReplayedBytes,
		StaleEpochDrops: st.StaleEpochDrops + st1.StaleEpochDrops,
		Recovered:       len(recoveries),
		EndedAt:         endedAt,
	}
	if len(recoveries) > 0 {
		s := append([]sim.Time(nil), recoveries...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		r.RecoverP50 = s[len(s)/2]
		r.RecoverMax = s[len(s)-1]
	}
	// Every cycle must recover, or the row fails its data gate.
	r.gates, r.artifacts = h.verdict(dataOK && h.failed == 0 && transfers > 0 && r.Recovered == o.Cycles,
		fmt.Sprintf(" recovered=%d/%d", r.Recovered, o.Cycles))
	return r
}

func (r CrashloopResult) String() string {
	return fmt.Sprintf("di %7s  backoff %5s  %3d/%d cycles  %5d xfers  reconn %3d  replay %4d ops/%8d B  stale %4d  recover p50 %8.1fus max %8.1fus  %s",
		r.Opts.DeadInterval, r.Opts.Backoff, r.Recovered, r.Opts.Cycles, r.Transfers,
		r.Reconnects, r.ReplayedOps, r.ReplayedBytes, r.StaleEpochDrops,
		r.RecoverP50.Micros(), r.RecoverMax.Micros(), r.column())
}

// RenderCrashloop sweeps detection/backoff settings under a fixed
// downtime, printing one row per setting. ok is false if any run
// corrupted data, failed to recover a cycle, or leaked post-close state
// — the caller should exit nonzero. The results slice carries one entry
// per setting for bench-trajectory output; obsOpts composes the
// registry into every run (zero value = off).
func RenderCrashloop(cycles int, down sim.Time, size int, obsOpts cluster.ObsOptions) (out string, ok bool, results []CrashloopResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "Crash-loop recovery: node 1 crash-restarts %d times (down %v), writer streams %d B transfers, 1L-1G\n", cycles, down, size)
	fmt.Fprintf(&b, "(Config.Reconnect on; rows where DeadInterval > downtime recover by plain ARQ without an incarnation bump)\n\n")
	ok = true
	for _, c := range []struct{ di, backoff sim.Time }{
		{10 * sim.Millisecond, sim.Millisecond},
		{25 * sim.Millisecond, 2 * sim.Millisecond},
		{50 * sim.Millisecond, 5 * sim.Millisecond},
		{100 * sim.Millisecond, 10 * sim.Millisecond},
		{200 * sim.Millisecond, 20 * sim.Millisecond},
	} {
		r := RunCrashloop(CrashloopOptions{
			Cycles: cycles, Down: down, Bytes: size,
			DeadInterval: c.di, Backoff: c.backoff, Seed: 42, Obs: obsOpts,
		})
		results = append(results, r)
		ok = printRow(&b, r, "") && ok
	}
	if !ok {
		fmt.Fprintf(&b, "\nFAIL: a run corrupted data, failed to recover, or leaked post-close state\n")
	}
	return b.String(), ok, results
}
