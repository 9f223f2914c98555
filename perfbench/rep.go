package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"multiedge/internal/cluster"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/phys"
	"multiedge/internal/sim"
)

// sizes sets how much work one repetition of a workload does. The
// defaults are the timed benchmark; tests shrink them and the README's
// collapse reproduction grows fanin-1k.
type sizes struct {
	StreamOps  int // 64 KiB writes on stream-2rail, split over streamDepth clients
	FaninConns int // client connections into node 0 on fanin-1k
	FaninOps   int // closed-loop ops per fanin-1k connection
	RadixKeys  int // keys sorted by dsm-radix

	// memBytes, when positive, overrides core.Config.MemBytes. Only tests
	// set it, to force Alloc out of memory inside a simulated process.
	memBytes int
}

func defaultSizes() sizes {
	return sizes{StreamOps: 8192, FaninConns: 1024, FaninOps: 64, RadixKeys: 1 << 18}
}

// rep is one set-up and run of one workload in this process. It records
// what the workload did in virtual time, what the simulator cost in host
// time, and the correctness gates.
type rep struct {
	workload string
	seed     int64
	sz       sizes
	tr       *tracer // nil on untraced repetitions

	// setupOnly stops the repetition after set-up: the coordinator adds
	// such repetitions so setup_s is a median over many fresh processes.
	setupOnly bool

	cl     *cluster.Cluster
	server int // node whose station downlinks phys.peak_queue watches

	buildWall, connectWall, prepareWall, runWall time.Duration
	runEvents                                    uint64
	allocs                                       uint64
	gcCPU, totalCPU                              float64

	// Virtual-time measurement window: synchronized start to last
	// completion, and each node's CPU busy time at both ends.
	start, end         sim.Time
	ended              bool
	appBusy, protoBusy [2][]sim.Time
	protoJobs          [2][]uint64
	netStart           cluster.NetReport

	lat           []sim.Time // latencies of ops that succeeded
	attempted     int
	failed        int
	verifiedBytes int64
	wrong         []string // correctness gate failures, first few kept
	wrongCount    int

	extra map[string]float64 // workload-specific virtual metrics (dsm.*)
}

func newRep(workload string, seed int64, sz sizes, traced bool) *rep {
	r := &rep{workload: workload, seed: seed, sz: sz, extra: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// fail records a correctness-gate failure.
func (r *rep) fail(format string, args ...any) {
	r.wrongCount++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// opDone records one completed op: its latency from issue, and whether
// it succeeded (an error or a byte mismatch is a failed op, counted as a
// latency miss).
func (r *rep) opDone(node, conn int, op int64, name string, issued sim.Time, ok bool) {
	now := r.cl.Env.Now()
	if ok {
		r.lat = append(r.lat, now-issued)
	} else {
		r.failed++
	}
	if r.tr != nil {
		r.tr.virtual(name, issued, now, node, conn, op)
	}
}

// guard runs fn and turns a panic — a simulated process panicking is
// re-raised by Env.Run — into an error.
func guard(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

// phase times one set-up call into a layer in wall time, recording a
// wall span when traced.
func (r *rep) phase(name string, d *time.Duration, fn func()) error {
	t0 := time.Now()
	err := guard(fn)
	*d += time.Since(t0)
	if r.tr != nil {
		r.tr.wall(name, t0, time.Now())
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// build validates cfg and builds the cluster.
func (r *rep) build(cfg cluster.Config) error {
	cfg.Seed = r.seed
	if r.sz.memBytes > 0 {
		cfg.Core.MemBytes = r.sz.memBytes
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return r.phase("cluster.New", &r.buildWall, func() { r.cl = cluster.New(cfg) })
}

// setupWall is set-up's wall time: build, connect and prepare.
func (r *rep) setupWall() time.Duration { return r.buildWall + r.connectWall + r.prepareWall }

// connect runs the simulation through a set-up phase (dials, FullMesh).
func (r *rep) connect(name string, fn func()) error {
	return r.phase(name, &r.connectWall, fn)
}

// startWindow opens the virtual measurement window at the current
// instant.
func (r *rep) startWindow() {
	r.start = r.cl.Env.Now()
	r.snapCPUs(0)
	r.netStart = r.cl.Collect()
}

// endWindow closes the window; the workload calls it when its last op
// (or app node body) completes.
func (r *rep) endWindow() {
	r.end = r.cl.Env.Now()
	r.ended = true
	r.snapCPUs(1)
}

func (r *rep) snapCPUs(i int) {
	n := len(r.cl.Nodes)
	r.appBusy[i], r.protoBusy[i], r.protoJobs[i] = make([]sim.Time, n), make([]sim.Time, n), make([]uint64, n)
	for k, nd := range r.cl.Nodes {
		r.appBusy[i][k] = nd.CPUs.App.BusyTime()
		r.protoBusy[i][k] = nd.CPUs.Proto.BusyTime()
		r.protoJobs[i][k] = nd.CPUs.Proto.Jobs()
	}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (allocs uint64, gc, total float64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Float64(), runtimeSamples[2].Value.Float64()
}

// run executes the workload phase: Env.Run after set-up, in wall time.
// Traced repetitions run it in slices of virtual time and sample gauges
// between slices, which executes the same events in the same order and
// schedules none of its own.
func (r *rep) run() error {
	if r.setupOnly {
		return nil
	}
	env := r.cl.Env
	// Start the timed phase from a collected heap, as go test -bench does,
	// so set-up garbage is not collected on the workload's clock.
	runtime.GC()
	ev0 := env.Executed()
	a0, gc0, cpu0 := readRuntime()
	stopProfile := func() {}
	if r.tr != nil {
		var err error
		if stopProfile, err = r.tr.startProfile(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	err := guard(func() {
		if r.tr == nil {
			env.Run()
			return
		}
		r.tr.sample(r)
		// RunUntil leaves the clock at the last event run, not at the
		// horizon, so the horizon advances on its own.
		for h := env.Now(); env.PendingLive() > 0; {
			h += gaugeStep
			n := env.Executed()
			env.RunUntil(h)
			if env.Executed() != n {
				r.tr.sample(r)
			}
		}
	})
	r.runWall = time.Since(t0)
	stopProfile()
	a1, gc1, cpu1 := readRuntime()
	r.allocs, r.gcCPU, r.totalCPU = a1-a0, gc1-gc0, cpu1-cpu0
	r.runEvents = env.Executed() - ev0
	if r.tr != nil {
		r.tr.wall("Env.Run", t0, t0.Add(r.runWall))
	}
	if err != nil {
		return fmt.Errorf("Env.Run: %w", err)
	}
	return nil
}

// checkLeaks is the post-teardown gate: with every connection closed,
// no simulation event may remain queued and no endpoint may still table
// a connection.
func (r *rep) checkLeaks() {
	env := r.cl.Env
	if n := env.PendingLive(); n != 0 {
		r.fail("leak: %d live events pending after teardown", n)
	}
	if n := env.PendingEvents(); n != 0 {
		r.fail("leak: %d events pending after teardown", n)
	}
	active := 0
	for _, nd := range r.cl.Nodes {
		active += nd.EP.ActiveConns()
	}
	if active != 0 {
		r.fail("leak: %d connections still tabled after teardown", active)
	}
	if !r.ended {
		r.fail("workload did not finish")
	}
}

// postMortem renders the flight recorders (when the workload runs them)
// into a dump for a failed repetition.
func (r *rep) postMortem(cause error) *obs.PostMortem {
	var at sim.Time
	var recs []*obs.Recorder
	if r.cl != nil {
		at, recs = r.cl.Env.Now(), r.cl.Recorders
	}
	return obs.BuildPostMortem(cause.Error(), at, nil, recs...)
}

// downlinks returns the switch output ports that deliver to node n, one
// per rail.
func (r *rep) downlinks(n int) []*phys.OutPort {
	var ports []*phys.OutPort
	for l := 0; l < r.cl.Cfg.LinksPerNode; l++ {
		addr := frame.NewAddr(n, l)
		for _, sw := range r.cl.Switches {
			if p := sw.OutPortFor(addr); p != nil {
				ports = append(ports, p)
			}
		}
	}
	return ports
}

// percentile returns the nearest-rank p-th percentile of sorted, with
// misses extra samples counted as +Inf beyond every success.
func percentile(sorted []sim.Time, misses int, p float64) float64 {
	n := len(sorted) + misses
	if n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(p/100*float64(n)))-1, 0)
	if rank >= len(sorted) {
		return inf
	}
	return sorted[rank].Micros()
}

var inf = 1e300 // a latency miss; JSON cannot carry +Inf

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// measure turns a finished repetition into its raw metrics. Every
// end-to-end and per-layer metric the repetition can produce is
// included; the coordinator picks and aggregates them.
func (r *rep) measure() (map[string]float64, error) {
	m := map[string]float64{}
	vt := r.end - r.start
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	m["vtime_ms"] = float64(vt) / float64(sim.Millisecond)
	if vt > 0 {
		m["goodput_mbs"] = float64(r.verifiedBytes) / 1e6 / vt.Seconds()
	}
	m["op_p50_us"] = percentile(r.lat, r.failed, 50)
	m["op_p99_us"] = percentile(r.lat, r.failed, 99)
	m["op_samples"] = float64(len(r.lat) + r.failed)
	if r.attempted > 0 {
		m["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	}

	m["wall_s"] = r.runWall.Seconds()
	m["setup_s"] = r.setupWall().Seconds()
	m["cluster.build_s"] = r.buildWall.Seconds()
	m["cluster.connect_s"] = r.connectWall.Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss

	m["sim.events"] = float64(r.runEvents)
	if r.runEvents > 0 {
		m["sim.ns_per_event"] = float64(r.runWall.Nanoseconds()) / float64(r.runEvents)
	}
	if ops := r.attempted; ops > 0 {
		m["runtime.allocs_per_op"] = float64(r.allocs) / float64(ops)
	}
	if r.totalCPU > 0 {
		m["runtime.gc_frac"] = r.gcCPU / r.totalCPU
	}

	// hostmodel: the busiest node's CPU utilization over the window, and
	// protocol-CPU jobs summed over nodes.
	var jobs uint64
	for k := range r.cl.Nodes {
		if vt > 0 {
			m["hostmodel.app_util"] = max(m["hostmodel.app_util"], float64(r.appBusy[1][k]-r.appBusy[0][k])/float64(vt))
			m["hostmodel.proto_util"] = max(m["hostmodel.proto_util"], float64(r.protoBusy[1][k]-r.protoBusy[0][k])/float64(vt))
		}
		jobs += r.protoJobs[1][k] - r.protoJobs[0][k]
	}
	m["hostmodel.proto_jobs"] = float64(jobs)

	// core and phys over the workload phase (teardown included).
	net := r.cl.Collect().Sub(r.netStart)
	st := net.Proto
	m["core.data_frames"] = float64(st.DataFramesSent)
	if st.DataFramesSent > 0 {
		m["core.retx_ratio"] = float64(st.Retransmissions) / float64(st.DataFramesSent)
	}
	m["core.retransmits"] = float64(st.Retransmissions)
	m["core.rto_expiries"] = float64(st.RtoExpiries)
	m["core.nacks"] = float64(st.CtrlNacksSent)
	m["core.acks"] = float64(st.CtrlAcksSent)
	m["core.dup_frames"] = float64(st.Duplicates)
	m["core.cwnd_cuts"] = float64(st.CcCwndCuts)
	m["core.peer_deaths"] = float64(st.PeerDeadEvents)
	if st.SQOps > 0 {
		m["core.coalesce_ratio"] = float64(st.CoalescedSubOps) / float64(st.SQOps)
	}
	m["core.ooo_frac"] = st.OOOFraction()
	m["core.extra_frac"] = st.ExtraTrafficFraction()
	m["phys.wire_frames"] = float64(net.WireFrames)
	m["phys.wire_bytes"] = float64(net.WireBytes)
	m["phys.switch_drops"] = float64(net.SwitchDrops)
	m["phys.ecn_marks"] = float64(net.EcnMarks)
	if net.NICRxFrames > 0 {
		m["phys.intr_per_frame"] = float64(net.Interrupts) / float64(net.NICRxFrames)
	}
	for _, k := range []string{"dsm.fetches", "dsm.diff_msgs", "dsm.locks", "dsm.barriers",
		"dsm.data_ms", "dsm.barrier_ms", "dsm.lock_ms", "dsm.compute_ms", "dsm.overhead_ms"} {
		m[k] = r.extra[k]
	}
	if r.tr != nil {
		if err := r.tr.measure(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}
