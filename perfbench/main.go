// Command perfbench is the repository's benchmark. It runs one named
// workload through the layers' public calls, checks every output, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, taken from traced repetitions (see README.md).
//
// Usage, from this directory:
//
//	go run . -workload fanin-1k -seed 1 -seconds 10 -trace 0
//
// Each repetition runs in a fresh child process (the same binary with
// -rep), so host time, set-up time and peak RSS are never inherited from
// an earlier repetition's heap. Repetitions continue until -seconds have
// passed and at least the minimum count has run; host metrics are the
// median over repetitions, and every virtual-time metric must repeat
// exactly across them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"multiedge/internal/obs"
)

// source says where a metric's value comes from.
type source int

const (
	virtual source = iota // virtual time or counts: identical on every repetition of a seed
	host                  // host cost on untraced repetitions: the median
	setup                 // set-up host time: the median over untraced and set-up-only repetitions
	traced                // traced repetitions only: the median
)

type metricDef struct {
	name, unit string
	src        source
}

// endToEnd is what a user of the modelled stack or the simulator sees.
var endToEnd = []metricDef{
	{"goodput_mbs", "MB/s", virtual},
	{"vtime_ms", "ms", virtual},
	{"op_p50_us", "us", virtual},
	{"op_p99_us", "us", virtual},
	{"wall_s", "s", host},
	{"setup_s", "s", setup},
	{"peak_rss_mb", "MB", host},
}

// perLayer splits the work by module; trace_overhead is computed by the
// coordinator from both kinds of repetition.
var perLayer = []metricDef{
	{"sim.events", "count", virtual},
	{"sim.ns_per_event", "ns", host},
	{"sim.peak_pending", "count", traced},
	{"sim.host_frac", "ratio", traced},
	{"cluster.build_s", "s", setup},
	{"cluster.connect_s", "s", setup},
	{"hostmodel.proto_util", "ratio", virtual},
	{"hostmodel.app_util", "ratio", virtual},
	{"hostmodel.proto_jobs", "count", virtual},
	{"core.data_frames", "count", virtual},
	{"core.retx_ratio", "ratio", virtual},
	{"core.rto_expiries", "count", virtual},
	{"core.nacks", "count", virtual},
	{"core.acks", "count", virtual},
	{"core.dup_frames", "count", virtual},
	{"core.cwnd_cuts", "count", virtual},
	{"core.peer_deaths", "count", virtual},
	{"core.coalesce_ratio", "ratio", virtual},
	{"core.ooo_frac", "ratio", virtual},
	{"core.extra_frac", "ratio", virtual},
	{"core.host_frac", "ratio", traced},
	{"phys.wire_frames", "count", virtual},
	{"phys.wire_bytes", "bytes", virtual},
	{"phys.switch_drops", "count", virtual},
	{"phys.ecn_marks", "count", virtual},
	{"phys.intr_per_frame", "ratio", virtual},
	{"phys.peak_queue", "frames", traced},
	{"phys.host_frac", "ratio", traced},
	{"frame.host_frac", "ratio", traced},
	{"dsm.fetches", "count", virtual},
	{"dsm.diff_msgs", "count", virtual},
	{"dsm.locks", "count", virtual},
	{"dsm.barriers", "count", virtual},
	{"dsm.data_ms", "ms", virtual},
	{"dsm.barrier_ms", "ms", virtual},
	{"dsm.lock_ms", "ms", virtual},
	{"dsm.compute_ms", "ms", virtual},
	{"dsm.overhead_ms", "ms", virtual},
	{"dsm.host_frac", "ratio", traced},
	{"apps.host_frac", "ratio", traced},
	{"obs.host_frac", "ratio", traced},
	{"runtime.allocs_per_op", "count", host},
	{"runtime.gc_frac", "ratio", host},
	{"runtime.peak_heap_mb", "MB", traced},
	{"runtime.host_frac", "ratio", traced},
	{"trace_overhead", "ratio", host},
}

// alsoVirtual are virtual figures outside both tables that must still
// repeat exactly; they are printed as context.
var alsoVirtual = []string{"op_samples", "fail_ratio", "core.retransmits"}

// setupReps set-up-only repetitions follow the full ones in every run,
// so set-up time is a median over many fresh processes: a set-up takes
// milliseconds and one alone is mostly noise.
const setupReps = 12

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: cluster jitter and payload bytes")
	seconds := fs.Float64("seconds", 10, "keep starting repetitions until this many seconds have passed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from traced ones")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, CPU profiles and post-mortems")
	isRep := fs.Bool("rep", false, "run one repetition in this process and print its raw metrics (used by the coordinator)")
	isTraced := fs.Bool("traced", false, "with -rep: trace the repetition")
	isSetupOnly := fs.Bool("setup-only", false, "with -rep: stop after set-up and report only set-up times")
	sz := defaultSizes()
	fs.IntVar(&sz.StreamOps, "stream-ops", sz.StreamOps, "stream-2rail: total 64 KiB writes")
	fs.IntVar(&sz.FaninConns, "fanin-conns", sz.FaninConns, "fanin-1k: client connections")
	fs.IntVar(&sz.FaninOps, "fanin-ops", sz.FaninOps, "fanin-1k: closed-loop ops per connection")
	fs.IntVar(&sz.RadixKeys, "radix-keys", sz.RadixKeys, "dsm-radix: keys to sort")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if sz.StreamOps < 1 || sz.FaninConns < 1 || sz.FaninOps < 1 || sz.RadixKeys < 16 {
		fmt.Fprintln(stderr, "perfbench: sizes must be positive (-radix-keys at least 16)")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *isRep {
		return repMain(*workload, *seed, sz, *isTraced, *isSetupOnly, *out, stdout, stderr)
	}
	c := coordinator{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, sizeArgs: sizeArgs(fs), stdout: stdout, stderr: stderr}
	return c.run()
}

// sizeArgs passes explicitly set size flags on to the repetitions.
func sizeArgs(fs *flag.FlagSet) []string {
	var args []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "stream-ops", "fanin-conns", "fanin-ops", "radix-keys":
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	return args
}

// repResult is what one repetition reports to the coordinator.
type repResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Wrong      []string           `json:"wrong"`
	WrongCount int                `json:"wrong_count"`

	seed int64 // the instance seed, set by the coordinator
}

// repMain runs one repetition. A set-up error or a panic inside the
// simulation exits 1 after printing the post-mortem; wrong outputs are
// reported, not fatal, so the coordinator can print them.
func repMain(workload string, seed int64, sz sizes, tracedRep, setupOnly bool, out string, stdout, stderr io.Writer) int {
	res, err := runRep(workload, seed, sz, tracedRep, setupOnly, out)
	if err != nil {
		var pm *postMortemError
		if errors.As(err, &pm) {
			fmt.Fprint(stderr, pm.dump.Timeline())
			path := filepath.Join(out, fmt.Sprintf("%s-seed%d.postmortem.json", workload, seed))
			if werr := os.MkdirAll(out, 0o755); werr == nil {
				if werr = os.WriteFile(path, pm.dump.JSON(), 0o644); werr == nil {
					fmt.Fprintf(stderr, "perfbench: post-mortem written to %s\n", path)
				}
			}
		}
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", workload, seed, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type postMortemError struct {
	err  error
	dump *obs.PostMortem
}

func (e *postMortemError) Error() string { return e.err.Error() }
func (e *postMortemError) Unwrap() error { return e.err }

// runRep sets up and runs one repetition in this process.
func runRep(workload string, seed int64, sz sizes, tracedRep, setupOnly bool, out string) (*repResult, error) {
	r := newRep(workload, seed, sz, tracedRep)
	r.setupOnly = setupOnly
	if err := workloads[workload](r); err != nil {
		return nil, &postMortemError{err: err, dump: r.postMortem(err)}
	}
	if setupOnly {
		return &repResult{Metrics: map[string]float64{
			"setup_s":           r.setupWall().Seconds(),
			"cluster.build_s":   r.buildWall.Seconds(),
			"cluster.connect_s": r.connectWall.Seconds(),
		}}, nil
	}
	r.checkLeaks()
	m, err := r.measure()
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.tr.write(out, fmt.Sprintf("%s-seed%d", workload, seed)); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return &repResult{Metrics: m, Attempted: r.attempted, Failed: r.failed,
		Wrong: r.wrong, WrongCount: r.wrongCount}, nil
}

// coordinator runs repetitions in child processes and aggregates them.
//
// One run covers subSeeds instances of the workload, with seeds derived
// from -seed: an overloaded fan-in is chaotic, and the median over a few
// independent instances moves far less from one -seed to the next than
// any single instance does. Full repetitions cycle through the instances;
// a virtual figure is the median over instances of that instance's
// value, which every repetition of the instance must reproduce exactly.
type coordinator struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sizeArgs []string
	stdout   io.Writer
	stderr   io.Writer
}

// subSeeds is the number of workload instances per run.
const subSeeds = 3

func subSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

type repKind int

const (
	fullRep repKind = iota
	tracedRep
	setupRep
)

func (c *coordinator) child(kind repKind, seed int64) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-rep", "-workload", c.workload, "-seed", strconv.FormatInt(seed, 10),
		"-out", c.out, "-traced=" + strconv.FormatBool(kind == tracedRep),
		"-setup-only=" + strconv.FormatBool(kind == setupRep)}, c.sizeArgs...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, c.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition (seed %d) failed: %w", seed, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("repetition (seed %d) output: %w", seed, err)
	}
	res.seed = seed
	return &res, nil
}

func (c *coordinator) run() int {
	t0 := time.Now()
	var plain, tracedReps, setups []*repResult
	// Untraced runs do full repetitions of instance 0, 1, 2, 0, ...;
	// traced runs pair each instance's untraced repetition with a traced
	// one, so trace_overhead compares equal work. Every instance runs
	// at least once of each kind, whatever -seconds says.
	for i := 0; ; i++ {
		minFull := len(plain) >= subSeeds
		if c.trace {
			minFull = len(plain) >= subSeeds && len(tracedReps) >= subSeeds
		}
		if minFull && time.Since(t0).Seconds() >= c.seconds {
			break
		}
		kind, inst := fullRep, i%subSeeds
		if c.trace {
			inst = i / 2 % subSeeds
			if i%2 == 1 {
				kind = tracedRep
			}
		}
		res, err := c.child(kind, subSeed(c.seed, inst))
		if err != nil {
			fmt.Fprintf(c.stderr, "perfbench: %s seed %d: %v\n", c.workload, c.seed, err)
			return 1
		}
		if kind == tracedRep {
			tracedReps = append(tracedReps, res)
		} else {
			plain = append(plain, res)
			setups = append(setups, res)
		}
	}
	for i := 0; i < setupReps; i++ {
		res, err := c.child(setupRep, subSeed(c.seed, i%subSeeds))
		if err != nil {
			fmt.Fprintf(c.stderr, "perfbench: %s seed %d: %v\n", c.workload, c.seed, err)
			return 1
		}
		setups = append(setups, res)
	}
	all := append(append([]*repResult(nil), plain...), tracedReps...)

	correct := true
	attempted, failed := 0, 0
	for _, res := range all {
		attempted += res.Attempted
		failed += res.Failed
		if res.WrongCount > 0 {
			correct = false
			fmt.Fprintf(c.stdout, "WRONG: seed %d: %d correctness failures, first: %s\n",
				res.seed, res.WrongCount, strings.Join(res.Wrong, "; "))
		}
	}
	// Determinism gate: every virtual figure repeats exactly across
	// repetitions of one instance, traced or not.
	check := func(reps []*repResult, names []string) {
		first := map[int64]*repResult{}
		for _, res := range reps {
			f, ok := first[res.seed]
			if !ok {
				first[res.seed] = res
				continue
			}
			for _, name := range names {
				if res.Metrics[name] != f.Metrics[name] {
					correct = false
					fmt.Fprintf(c.stdout, "WRONG: %s differs across repetitions of seed %d: %v vs %v\n",
						name, res.seed, f.Metrics[name], res.Metrics[name])
				}
			}
		}
	}
	check(all, virtualNames())
	check(tracedReps, []string{"sim.peak_pending", "phys.peak_queue"})

	// perInstance returns the median over instances of each instance's
	// first value.
	perInstance := func(reps []*repResult, name string) float64 {
		seen := map[int64]bool{}
		var xs []float64
		for _, res := range reps {
			if !seen[res.seed] {
				seen[res.seed] = true
				xs = append(xs, res.Metrics[name])
			}
		}
		return median(xs)
	}
	value := func(d metricDef) (float64, []float64) {
		var from []*repResult
		switch d.src {
		case virtual:
			return perInstance(all, d.name), nil
		case host:
			from = plain
		case setup:
			from = setups
		case traced:
			from = tracedReps
		}
		xs := field(from, d.name)
		return median(xs), xs
	}

	fmt.Fprintf(c.stdout, "perfbench %s seed %d: %d untraced + %d traced + %d set-up-only repetitions of %d instances in %.1fs, GOMAXPROCS %d\n",
		c.workload, c.seed, len(plain), len(tracedReps), len(setups)-len(plain), subSeeds, time.Since(t0).Seconds(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(c.stdout, "  %-22s %-14.6g %-6s %d failed of %d ops attempted\n", "fail_ratio",
		float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
	fmt.Fprintf(c.stdout, "  %-22s %-14.6g %-6s per instance; sim.events %.0f\n", "op_samples",
		perInstance(all, "op_samples"), "count", perInstance(all, "sim.events"))
	metricsOut := map[string]any{}
	report := func(defs []metricDef, into bool) {
		for _, d := range defs {
			var v float64
			var xs []float64
			if d.name == "trace_overhead" {
				v = median(field(tracedReps, "wall_s"))/median(field(plain, "wall_s")) - 1
			} else {
				v, xs = value(d)
			}
			line := fmt.Sprintf("  %-22s %-14.6g %-6s", d.name, v, d.unit)
			switch {
			case d.src == virtual:
				line += fmt.Sprintf(" virtual, median of %d instances", subSeeds)
			case len(xs) > 0:
				q := quartiles(xs)
				kind := "host"
				if d.src == traced {
					kind = "traced"
				}
				line += fmt.Sprintf(" %s, median of %d [q1 %.6g, q3 %.6g]", kind, len(xs), q[0], q[2])
			}
			fmt.Fprintln(c.stdout, line)
			if into {
				metricsOut[d.name] = map[string]any{"value": v, "unit": d.unit}
			}
		}
	}
	report(endToEnd, !c.trace)
	if c.trace {
		report(perLayer, true)
		fmt.Fprintf(c.stdout, "  %-22s %-14.6g %-6s traced: the benchmark's own stamping, verification and sampling\n",
			"perfbench.host_frac", median(field(tracedReps, "perfbench.host_frac")), "ratio")
		fmt.Fprintf(c.stdout, "  %-22s %-14.6g %-6s traced, median per repetition: the *.host_frac base\n",
			"profile_samples", median(field(tracedReps, "profile_samples")), "count")
		fmt.Fprintf(c.stdout, "  traces and CPU profiles in %s\n", c.out)
	}
	b, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metricsOut})
	if err != nil {
		fmt.Fprintf(c.stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(c.stdout, "%s\n", b)
	return 0
}

func virtualNames() []string {
	names := append([]string(nil), alsoVirtual...)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.src == virtual {
				names = append(names, d.name)
			}
		}
	}
	return names
}

func field(rs []*repResult, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Metrics[name])
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, median and Q3 by the exclusive method, the
// default of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		m := float64(i) * float64(n+1) / 4
		j := int(m)
		frac := m - float64(j)
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = s[j-1] + frac*(s[j]-s[j-1])
		}
	}
	return q
}
