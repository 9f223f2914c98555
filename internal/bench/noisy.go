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

// Noisy-neighbor isolation: one latency-sensitive victim tenant shares
// an endpoint with an elephant-flow flood tenant, the scenario ISSUE
// 8's QoS layer exists for. The bench runs three phases over identical
// seeds — victim alone, victim + flood with QoS off (the starvation
// demonstration), victim + flood with QoS on — and gates that
// weighted-fair scheduling plus the flood class's rate cap keep the
// victim's p99 within noisyP99Bound of its isolated baseline.

// Tenant class table shared by every QoS-on noisy run: class 1 is the
// victim (weight 8), class 2 the flood (weight 1, rate-capped and
// quota-bounded). Class 0 is the default class nothing here uses for
// data traffic.
func noisyClasses() []core.QoSClass {
	return []core.QoSClass{
		{Weight: 1},
		{Weight: 8},
		{Weight: 1, RateBps: 80e6, Burst: 8 << 10, MaxQueued: 16, MaxQueuedBytes: 1 << 20},
	}
}

// noisyP99Bound is the isolation gate: with QoS on, the victim's p99
// under flood may not exceed this multiple of its isolated baseline.
const noisyP99Bound = 3.0

const (
	noisyVictimClass = 1
	noisyFloodClass  = 2
	noisyVictimSize  = 64       // victim op payload bytes
	noisyFloodSize   = 16 << 10 // flood op payload bytes
	noisyFloodConns  = 8
	noisyFloodWindow = 4  // pipelined flood ops per connection
	noisySlots       = 8  // victim buffer rotation
	noisyWarmup      = 32 // unrecorded victim ops that absorb the flood's start-up burst
)

// NoisyOptions parameterizes one phase of the noisy-neighbor bench.
type NoisyOptions struct {
	VictimOps int  // closed-loop victim operations to measure
	QoS       bool // enable the tenant class table
	Flood     bool // run the elephant flood alongside the victim
	Chaos     bool // inject a loss burst mid-run
	Seed      int64

	Obs             cluster.ObsOptions
	DisableRecorder bool

	// inject, when set, schedules extra faults on the run's chaos runner
	// before the simulation starts (tests kill the server mid-run).
	inject func(*chaos.Runner)
}

// NoisyResult is one phase measurement plus its correctness gates. Its
// latency summary is the victim tenant's: Ops counts victim operations
// completed past the warmup.
type NoisyResult struct {
	Phase   string // "isolated", "qos-off", "qos-on"
	QoSOn   bool
	Flooded bool
	latency
	FloodOps int // flood operations completed before the victim finished

	// QoS trace (zero when QoS off).
	AdmissionWaits uint64
	RateDeferrals  uint64

	gates
	Net cluster.NetReport
	artifacts
}

// RunNoisy drives one phase: a victim tenant issuing closed-loop 64 B
// solicited writes from node 1 to node 0, optionally sharing node 1's
// endpoint with eight flood connections each streaming pipelined 16 KiB
// writes until the victim finishes. Every connection is tagged with its
// tenant class whether or not QoS is enabled, so the QoS-off phase
// differs only in the scheduler/admission machinery being off.
func RunNoisy(opts NoisyOptions) NoisyResult {
	cfg := cluster.OneLink1G(2)
	cfg.Seed = opts.Seed
	if opts.QoS {
		cfg.Core.QoS = noisyClasses()
	}
	phase := "isolated"
	if opts.Flood {
		phase = "qos-off"
		if opts.QoS {
			phase = "qos-on"
		}
	}
	h := newHarness("noisy "+phase, cfg, opts.Obs, opts.DisableRecorder)
	cl := h.cl
	server := cl.Nodes[0].EP
	client := cl.Nodes[1].EP
	if opts.Chaos {
		// A loss burst on the server rail perturbs victim and flood alike;
		// isolation must hold through the repair traffic.
		h.chaos().LossBurst(500*sim.Microsecond, 5*sim.Millisecond, 0, 0, 0.02)
	}
	h.inject(opts.inject)

	h.parties = 1
	if opts.Flood {
		h.parties += noisyFloodConns
	}
	victimDone := false
	floodOps := 0
	verified := true

	// Victim: closed-loop solicited writes, one at a time, each timed.
	vRemote := server.Alloc(noisySlots * noisyVictimSize)
	vLocal := client.Alloc(noisySlots * noisyVictimSize)
	cl.Env.Go("noisy-victim", func(p *sim.Proc) {
		c := client.Dial(p, 0, 0)
		c.SetClass(noisyVictimClass)
		faninFill(client.Mem()[vLocal:vLocal+uint64(noisySlots*noisyVictimSize)], 11)
		h.arrive(p)
		// Warmup absorbs the flood's start-up transient (its token bucket
		// opens full) so the percentiles measure steady-state isolation,
		// matching fanin's measure-past-the-dial-storm convention.
		for k := 0; k < noisyWarmup+opts.VictimOps; k++ {
			off := uint64(k % noisySlots * noisyVictimSize)
			t0 := cl.Env.Now()
			if err := doWait(p, c, core.Op{Remote: vRemote + off, Local: vLocal + off,
				Size: noisyVictimSize, Kind: frame.OpWrite, Flags: frame.Solicit}); err != nil {
				h.fail(1, fmt.Errorf("victim: %w", err))
				break
			}
			if k == noisyWarmup-1 {
				h.start = cl.Env.Now()
			} else if k >= noisyWarmup {
				h.rec.Record(cl.Env.Now() - t0)
			}
		}
		h.end = cl.Env.Now()
		victimDone = true
		nb := uint64(noisySlots * noisyVictimSize)
		if opts.VictimOps < noisySlots {
			nb = uint64(opts.VictimOps * noisyVictimSize)
		}
		if !bytes.Equal(server.Mem()[vRemote:vRemote+nb], client.Mem()[vLocal:vLocal+nb]) {
			verified = false
		}
		c.Close(p)
	})

	// Flood: greedy pipelined elephants from the same endpoint. Quota
	// backpressure (QoS on) legitimately blocks them in admission. A
	// failed flood op stops that flood conn.
	if opts.Flood {
		for j := 0; j < noisyFloodConns; j++ {
			j := j
			src := client.Alloc(noisyFloodWindow * noisyFloodSize)
			dst := server.Alloc(noisyFloodWindow * noisyFloodSize)
			cl.Env.Go(fmt.Sprintf("noisy-flood%d", j), func(p *sim.Proc) {
				c := client.Dial(p, 0, 0)
				c.SetClass(noisyFloodClass)
				h.arrive(p)
				var inflight []*core.Handle
				retire := func(fh *core.Handle) bool {
					fh.Wait(p)
					if err := fh.Err(); err != nil {
						h.fail(1, fmt.Errorf("flood %d: %w", j, err))
						return false
					}
					floodOps++
					return true
				}
				alive := true
				for k := 0; alive && !victimDone; k++ {
					off := uint64(k % noisyFloodWindow * noisyFloodSize)
					fh, err := c.Do(p, core.Op{Remote: dst + off, Local: src + off,
						Size: noisyFloodSize, Kind: frame.OpWrite})
					if err != nil {
						h.fail(1, fmt.Errorf("flood %d: %w", j, err))
						break
					}
					inflight = append(inflight, fh)
					if len(inflight) >= noisyFloodWindow {
						alive = retire(inflight[0])
						inflight = inflight[1:]
					}
				}
				for _, fh := range inflight {
					retire(fh)
				}
				c.Close(p)
			})
		}
	}
	h.drain(600 * sim.Second)

	r := NoisyResult{
		Phase:    phase,
		QoSOn:    opts.QoS,
		Flooded:  opts.Flood,
		latency:  h.summary(h.rec.Count(), 0),
		FloodOps: floodOps,
		Net:      cl.Collect(),
	}
	r.AdmissionWaits = r.Net.Proto.QosAdmissionWaits
	r.RateDeferrals = r.Net.Proto.QosRateDeferrals
	r.gates, r.artifacts = h.verdict(verified && victimDone && h.failed == 0, "")
	return r
}

func (r NoisyResult) String() string {
	return fmt.Sprintf("%-8s  %6d victim ops  %9.3fms  %9.0f ops/s  p50 %7.1fus  p95 %7.1fus  p99 %8.1fus  flood %6d ops  waits %4d  defers %5d  %s",
		r.Phase, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec,
		r.P50Us, r.P95Us, r.P99Us, r.FloodOps, r.AdmissionWaits, r.RateDeferrals, r.column())
}

// RenderNoisy runs the three noisy-neighbor phases and gates the QoS-on
// victim p99 against noisyP99Bound times the isolated baseline. The
// QoS-off phase is the starvation demonstration: its p99 must exceed
// the QoS-on p99, or the flood was not actually contending. ok is false
// if any gate, byte-verification or leak check failed.
func RenderNoisy(victimOps int, withChaos bool, obsOpts cluster.ObsOptions) (out string, ok bool, results []NoisyResult) {
	var b strings.Builder
	chaosNote := ""
	if withChaos {
		chaosNote = ", loss burst on"
	}
	fmt.Fprintf(&b, "Noisy neighbor: 1 victim conn (class 1, w=8, %dB solicited writes) vs %d flood conns (class 2, w=1, %dKiB, rate-capped) on one endpoint, 1L-1G\n",
		noisyVictimSize, noisyFloodConns, noisyFloodSize>>10)
	fmt.Fprintf(&b, "(%d closed-loop victim ops; QoS classes %+v%s)\n\n", victimOps, noisyClasses(), chaosNote)
	ok = true
	phases := []NoisyOptions{
		{VictimOps: victimOps, QoS: true, Flood: false, Chaos: withChaos, Seed: 42, Obs: obsOpts},
		{VictimOps: victimOps, QoS: false, Flood: true, Chaos: withChaos, Seed: 42, Obs: obsOpts},
		{VictimOps: victimOps, QoS: true, Flood: true, Chaos: withChaos, Seed: 42, Obs: obsOpts},
	}
	for _, po := range phases {
		r := RunNoisy(po)
		results = append(results, r)
		ok = printRow(&b, r, "") && ok
	}
	iso, off, on := results[0], results[1], results[2]
	if iso.P99Us > 0 {
		fmt.Fprintf(&b, "\n  victim p99 ratio vs isolated:  qos-off %.2fx   qos-on %.2fx  (gate: qos-on <= %.1fx)\n",
			off.P99Us/iso.P99Us, on.P99Us/iso.P99Us, noisyP99Bound)
	}
	if on.P99Us > iso.P99Us*noisyP99Bound {
		ok = false
		fmt.Fprintf(&b, "\nFAIL: QoS-on victim p99 %.1fus exceeds %.1fx isolated baseline %.1fus\n",
			on.P99Us, noisyP99Bound, iso.P99Us)
	}
	if off.P99Us <= on.P99Us {
		ok = false
		fmt.Fprintf(&b, "\nFAIL: QoS-off victim p99 %.1fus not above QoS-on %.1fus — the flood is not contending\n",
			off.P99Us, on.P99Us)
	}
	if !ok && !strings.Contains(b.String(), "FAIL:") {
		fmt.Fprintf(&b, "\nFAIL: a phase corrupted data or leaked post-close state\n")
	}
	return b.String(), ok, results
}
