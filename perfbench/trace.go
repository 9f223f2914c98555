package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"multiedge/internal/sim"
)

// gaugeStep is the virtual-time slice a traced repetition runs Env.Run
// in; gauges are sampled between slices.
const gaugeStep = 10 * sim.Microsecond

// modules are the layers whose host-time share the CPU profile reports
// (see moduleShares), plus perfbench, the benchmark's own work.
var modules = []string{"sim", "cluster", "hostmodel", "core", "phys", "frame", "dsm", "apps", "obs", "runtime", "perfbench"}

// span is one call the benchmark made into a layer: a wall-clock span
// around a set-up or run call, or a virtual-time span around one op or
// one app node body.
type span struct {
	name       string
	virtual    bool
	start, end int64 // ns: since tracer start (wall) or sim time (virtual)
	node, conn int
	op         int64
}

type gauge struct {
	at                sim.Time
	pending, queued   int
	heapObjectsMBytes float64
}

// tracer keeps a traced repetition's spans, gauges and CPU profile in
// memory until the repetition ends.
type tracer struct {
	t0      time.Time
	spans   []span
	gauges  []gauge
	profile []byte
	heap    []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (t *tracer) wall(name string, from, to time.Time) {
	t.spans = append(t.spans, span{name: name, start: from.Sub(t.t0).Nanoseconds(),
		end: to.Sub(t.t0).Nanoseconds(), node: -1, conn: -1, op: -1})
}

func (t *tracer) virtual(name string, from, to sim.Time, node, conn int, op int64) {
	t.spans = append(t.spans, span{name: name, virtual: true, start: int64(from), end: int64(to),
		node: node, conn: conn, op: op})
}

// sample records the gauges: queued events, the server downlinks'
// queue depth, and the Go heap. It reads state only.
func (t *tracer) sample(r *rep) {
	q := 0
	for _, p := range r.downlinks(r.server) {
		q = max(q, p.Queued())
	}
	metrics.Read(t.heap)
	t.gauges = append(t.gauges, gauge{at: r.cl.Env.Now(), pending: r.cl.Env.PendingEvents(),
		queued: q, heapObjectsMBytes: float64(t.heap[0].Value.Uint64()) / (1 << 20)})
}

// startProfile starts the CPU profile; the returned stop keeps it in
// memory.
func (t *tracer) startProfile() (stop func(), err error) {
	buf := &byteSink{}
	if err := pprof.StartCPUProfile(buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		t.profile = buf.b
	}, nil
}

type byteSink struct{ b []byte }

func (s *byteSink) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }

// measure adds the traced-only metrics: gauge peaks and per-module host
// shares.
func (t *tracer) measure(m map[string]float64) error {
	var peakPending, peakQueue int
	var peakHeap float64
	for _, g := range t.gauges {
		peakPending = max(peakPending, g.pending)
		peakQueue = max(peakQueue, g.queued)
		peakHeap = max(peakHeap, g.heapObjectsMBytes)
	}
	m["sim.peak_pending"] = float64(peakPending)
	m["phys.peak_queue"] = float64(peakQueue)
	m["runtime.peak_heap_mb"] = peakHeap
	shares, n, err := moduleShares(t.profile)
	if err != nil {
		return err
	}
	m["profile_samples"] = float64(n)
	for _, mod := range modules {
		m[mod+".host_frac"] = shares[mod]
	}
	return nil
}

// write stores the spans and gauges as a Chrome trace (load it in
// Perfetto or chrome://tracing) and the raw CPU profile next to it.
// Wall spans are process 1, virtual spans and gauges process 2; the
// thread is the connection (or node for app bodies).
func (t *tracer) write(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".cpu.pprof"), t.profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	fmt.Fprint(w, "\n"+`{"ph":"M","pid":1,"name":"process_name","args":{"name":"wall clock"}},`)
	fmt.Fprint(w, "\n"+`{"ph":"M","pid":2,"name":"process_name","args":{"name":"virtual time"}}`)
	for _, s := range t.spans {
		pid, tid := 1, 0
		if s.virtual {
			pid, tid = 2, s.conn
			if tid < 0 {
				tid = s.node
			}
		}
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":%d,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"node":%d,"conn":%d,"op":%d}}`,
			pid, tid, s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.node, s.conn, s.op)
	}
	for _, g := range t.gauges {
		fmt.Fprintf(w, ",\n"+`{"ph":"C","pid":2,"name":"gauges","ts":%.3f,"args":{"pending_events":%d,"server_downlink_queued":%d}}`,
			g.at.Micros(), g.pending, g.queued)
		fmt.Fprintf(w, ",\n"+`{"ph":"C","pid":2,"name":"go_heap_mb","ts":%.3f,"args":{"objects":%.3f}}`,
			g.at.Micros(), g.heapObjectsMBytes)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
