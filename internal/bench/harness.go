package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
	"multiedge/internal/trace"
)

// The closed-loop harness every gated stress scenario (fan-in, incast,
// parking lot, noisy neighbor, serve, crash loop) runs on. A scenario
// keeps its own workload loop, result fields and printed row; the
// harness owns the scaffolding around them: the cluster with its
// flight recorders, the fault injector, an N-party start barrier, the
// latency recorder with its start/end marks, failed-op accounting, the
// drain, the all-nodes leak collection and the post-mortem verdict.

// gates are the correctness verdicts every gated scenario reports.
type gates struct {
	DataOK        bool // every verified byte matched and the workload finished
	PendingLive   int  // live sim events left after teardown (leak)
	PendingEvents int  // total sim events left after teardown, daemons included (leak)
	ActiveConns   int  // conns still tabled on any endpoint (leak)
}

// LeakFree reports whether the post-teardown gates all passed: nothing
// left queued in the simulator and no endpoint still tabling a conn.
func (g gates) LeakFree() bool {
	return g.PendingLive == 0 && g.PendingEvents == 0 && g.ActiveConns == 0
}

func (g gates) passed() bool { return g.DataOK && g.LeakFree() }

// column renders the gate columns that close every scenario's row.
func (g gates) column() string {
	data, leak := "ok", "ok"
	if !g.DataOK {
		data = "CORRUPT"
	}
	if !g.LeakFree() {
		leak = fmt.Sprintf("LEAK(live=%d ev=%d conns=%d)", g.PendingLive, g.PendingEvents, g.ActiveConns)
	}
	return fmt.Sprintf("data %-7s leak %s", data, leak)
}

// addExtras records the gates in a bench row's extras.
func (g gates) addExtras(extra map[string]float64) map[string]float64 {
	extra["data_ok"] = boolFloat(g.DataOK)
	extra["pending_live"] = float64(g.PendingLive)
	extra["pending_events"] = float64(g.PendingEvents)
	extra["active_conns"] = float64(g.ActiveConns)
	return extra
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// artifacts are a run's observability outputs: the registry (nil
// unless the run's ObsOptions enabled one), the per-node flight
// recorders, and — when a gate failed — the cause-tagged post-mortem.
type artifacts struct {
	Obs       *obs.Registry
	Recorders []*obs.Recorder
	Dump      *obs.PostMortem
}

func (a artifacts) timeline() string {
	if a.Dump == nil {
		return ""
	}
	return a.Dump.Timeline()
}

// latency summarizes a closed-loop run: operations completed in the
// measured window, the rates they imply, and per-op latency
// percentiles.
type latency struct {
	Ops       int
	Elapsed   sim.Time
	OpsPerSec float64
	GoodMB    float64 // payload goodput, MB/s
	P50Us     float64
	P95Us     float64
	P99Us     float64
}

// benchRow builds a bench-document row from a latency summary, the
// scenario's extras and the gate extras.
func benchRow(name string, l latency, g gates, extra map[string]float64) BenchRow {
	return BenchRow{Name: name, Ops: l.Ops, OpsPerSec: l.OpsPerSec, GoodputMBs: l.GoodMB,
		P50Us: l.P50Us, P95Us: l.P95Us, P99Us: l.P99Us, Extra: g.addExtras(extra)}
}

// gatedRow is a scenario result as the render loops print it.
type gatedRow interface {
	String() string
	passed() bool
	timeline() string
}

// printRow writes one result row plus suffix and, when the row's gates
// failed, its post-mortem timeline. It reports whether the row passed.
func printRow(b *strings.Builder, r gatedRow, suffix string) bool {
	fmt.Fprintf(b, "  %s%s\n", r, suffix)
	if r.passed() {
		return true
	}
	if t := r.timeline(); t != "" {
		b.WriteString("\n" + t)
	}
	return false
}

// failures counts failed operations and keeps the first error.
type failures struct {
	failed   int
	firstErr error
}

func (f *failures) fail(n int, err error) {
	f.failed += n
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// doWait issues op eagerly and waits for it, returning the issue or
// completion error.
func doWait(p *sim.Proc, c *core.Conn, op core.Op) error {
	h, err := c.Do(p, op)
	if err != nil {
		return err
	}
	h.Wait(p)
	return h.Err()
}

// postBatch posts n one-way writes from local to remote (slot i at
// offset i*size, the last one solicited), rings the doorbell once and
// drains the n completions. It returns how many operations failed —
// every unissued one when posting or ringing fails — and the first
// error.
func postBatch(p *sim.Proc, c *core.Conn, remote, local uint64, size, n int) (int, error) {
	for i := 0; i < n; i++ {
		off := uint64(i * size)
		if err := c.Post(core.Op{Remote: remote + off, Local: local + off,
			Size: size, Kind: frame.OpWrite, Flags: tailSolicit(i, n)}); err != nil {
			return n, err
		}
	}
	if _, err := c.Ring(p); err != nil {
		return n, err
	}
	var f failures
	for i := 0; i < n; i++ {
		if comp := c.WaitCQ(p); comp.Err != nil {
			f.fail(1, comp.Err)
		}
	}
	return f.failed, f.firstErr
}

// doBatch is postBatch's eager twin: it issues the n writes with one
// Do each, then waits for them all, reusing hs for the handles. It
// returns how many operations failed, counting every unissued one when
// an issue fails.
func doBatch(p *sim.Proc, c *core.Conn, hs []*core.Handle, remote, local uint64, size, n int) int {
	bad := 0
	hs = hs[:0]
	for i := 0; i < n; i++ {
		off := uint64(i * size)
		h, err := c.Do(p, core.Op{Remote: remote + off, Local: local + off, Size: size,
			Kind: frame.OpWrite, Flags: tailSolicit(i, n)})
		if err != nil {
			bad = n - i
			break
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Wait(p)
		if h.Err() != nil {
			bad++
		}
	}
	return bad
}

// harness is one scenario run's scaffolding.
type harness struct {
	name   string
	cl     *cluster.Cluster
	runner *chaos.Runner      // fault injector, created on first use
	notes  []obs.TimelineNote // faults the scenario drives itself

	rec        trace.LatencyRecorder
	start, end sim.Time // measured window; start stays 0 unless the barrier or the scenario marks it

	parties, arrived int // start barrier
	released         sim.Signal

	failures
}

// newHarness builds the scenario's cluster with the flight recorder
// attached (unless disableRecorder) and the registry composed per o.
func newHarness(name string, cfg cluster.Config, o cluster.ObsOptions, disableRecorder bool) *harness {
	cfg.Obs = o
	cfg.Obs.Recorder = !disableRecorder
	return &harness{name: name, cl: cluster.New(cfg)}
}

// chaos returns the run's fault injector, seeded one past the cluster.
func (h *harness) chaos() *chaos.Runner {
	if h.runner == nil {
		h.runner = chaos.New(h.cl, h.cl.Cfg.Seed+1)
	}
	return h.runner
}

// inject hands the fault injector to fn, when set; tests use it to kill
// nodes mid-run.
func (h *harness) inject(fn func(*chaos.Runner)) {
	if fn != nil {
		fn(h.chaos())
	}
}

// note adds a fault the scenario drives itself to the post-mortem
// timeline.
func (h *harness) note(text string) {
	h.notes = append(h.notes, obs.TimelineNote{At: h.cl.Env.Now(), Text: text})
}

// arrive blocks p at the start barrier until h.parties have arrived;
// the last arrival releases them all at one instant and marks the
// start of the measured window.
func (h *harness) arrive(p *sim.Proc) {
	if h.arrived++; h.arrived == h.parties {
		h.start = h.cl.Env.Now()
		h.released.Fire(h.cl.Env)
	}
	p.Wait(&h.released)
}

// drain runs the simulation out and returns the end time: to
// live-drain, then quiesces the registry (when one is attached) so its
// samplers stop ticking, then on to the horizon so the protocol's
// daemon liveness timers (heartbeats to a dead peer) fail and release
// the conns they watch before the leak gates look.
func (h *harness) drain(horizon sim.Time) sim.Time {
	h.cl.Env.Run()
	h.cl.Obs.Quiesce()
	return h.cl.Env.RunUntil(horizon)
}

// summary derives the latency summary from ops completed operations of
// size payload bytes each (0: no goodput figure) over the measured
// window.
func (h *harness) summary(ops, size int) latency {
	l := latency{Ops: ops, P50Us: h.rec.Percentile(50).Micros(),
		P95Us: h.rec.Percentile(95).Micros(), P99Us: h.rec.Percentile(99).Micros()}
	if h.end > h.start {
		l.Elapsed = h.end - h.start
		l.OpsPerSec = float64(ops) / l.Elapsed.Seconds()
		l.GoodMB = float64(ops) * float64(size) / 1e6 / l.Elapsed.Seconds()
	}
	return l
}

// verdict collects the leak gates over every node and the run's
// artifacts; when a gate failed it attaches a post-mortem whose cause
// names the gates, the failed operations, the first error and the
// scenario's detail.
func (h *harness) verdict(dataOK bool, detail string) (gates, artifacts) {
	env := h.cl.Env
	g := gates{DataOK: dataOK, PendingLive: env.PendingLive(), PendingEvents: env.PendingEvents()}
	for _, n := range h.cl.Nodes {
		g.ActiveConns += n.EP.ActiveConns()
	}
	a := artifacts{Obs: h.cl.Obs, Recorders: h.cl.Recorders}
	if !g.passed() {
		cause := fmt.Sprintf("%s gate failure: dataOK=%v failedOps=%d pendingLive=%d pendingEvents=%d activeConns=%d%s",
			h.name, g.DataOK, h.failed, g.PendingLive, g.PendingEvents, g.ActiveConns, detail)
		if h.firstErr != nil {
			cause += fmt.Sprintf(" firstErr=%q", h.firstErr.Error())
		}
		a.Dump = obs.BuildPostMortem(cause, env.Now(), append(h.runner.Notes(), h.notes...), h.cl.Recorders...)
	}
	return g, a
}
