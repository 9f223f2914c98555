package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"multiedge/internal/sim"
)

// TestMain lets the test binary stand in for the command: the
// coordinator re-executes its own binary for each repetition, and under
// go test that binary is this one.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_COMMAND") == "1" {
		os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv("PERFBENCH_AS_COMMAND", "1")
	os.Exit(m.Run())
}

// tiny keeps every workload to a fraction of a second.
func tiny() sizes {
	return sizes{StreamOps: 64, FaninConns: 48, FaninOps: 8, RadixKeys: 4096}
}

var tinyArgs = []string{"-stream-ops", "64", "-fanin-conns", "48", "-fanin-ops", "8", "-radix-keys", "4096"}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runCommand(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := mainCode(append(args, "-out", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

// TestCommandPrintsEveryBenchmarkName smoke-runs every workload at a
// tiny size in both modes and checks the result line carries exactly the
// metrics BENCHMARK.json names, with its units, and that every op
// verified.
func TestCommandPrintsEveryBenchmarkName(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", listed, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			res, out := runCommand(t, append([]string{"-workload", w, "-seconds", "0",
				"-trace", []string{"0", "1"}[trace]}, tinyArgs...)...)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				}
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: %s printed %v with unit %q, want unit %q", w, trace, m.Name, ok, got.Unit, m.Unit)
				}
				if !strings.Contains(out, "  "+m.Name+" ") {
					t.Errorf("%s trace %d: no human-readable line for %s", w, trace, m.Name)
				}
			}
			if !strings.Contains(out, "fail_ratio             0 ") {
				t.Errorf("%s trace %d: fail_ratio line missing or nonzero\n%s", w, trace, out)
			}
		}
	}
}

func mustRep(t *testing.T, w string, seed int64, sz sizes, traced bool) *repResult {
	t.Helper()
	res, err := runRep(w, seed, sz, traced, false, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d: %v", w, seed, err)
	}
	if res.WrongCount != 0 || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d wrong (%v), %d failed", w, seed, res.WrongCount, res.Wrong, res.Failed)
	}
	return res
}

// TestDeterminism: one seed repeats every virtual figure and the event
// count exactly, traced or not; another seed changes them, so the seed
// reaches the generator.
func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a := mustRep(t, w, 7, tiny(), false)
		b := mustRep(t, w, 7, tiny(), true)
		c := mustRep(t, w, 8, tiny(), false)
		changed := false
		for _, name := range virtualNames() {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v untraced, %v traced", w, name, a.Metrics[name], b.Metrics[name])
			}
			changed = changed || a.Metrics[name] != c.Metrics[name]
		}
		if a.Metrics["sim.events"] == 0 || !changed {
			t.Errorf("%s: seeds 7 and 8 gave identical virtual metrics (sim.events %v)", w, a.Metrics["sim.events"])
		}
	}
}

// TestDSMBreakdownWithinVtime: the mean per-node DSM time breakdown
// cannot exceed the application's makespan.
func TestDSMBreakdownWithinVtime(t *testing.T) {
	m := mustRep(t, "dsm-radix", 1, tiny(), false).Metrics
	sum := 0.0
	for _, k := range []string{"dsm.data_ms", "dsm.barrier_ms", "dsm.lock_ms", "dsm.compute_ms", "dsm.overhead_ms"} {
		sum += m[k]
	}
	if sum <= 0 || sum > m["vtime_ms"] {
		t.Fatalf("dsm breakdown %.3f ms against vtime %.3f ms (overhead %.3f ms)", sum, m["vtime_ms"], m["dsm.overhead_ms"])
	}
}

// TestPanicInProcessIsAPostMortem: Alloc running out of memory inside a
// dialing process fails the repetition with exit 1 and the flight
// recorder's post-mortem, not a crash.
func TestPanicInProcessIsAPostMortem(t *testing.T) {
	sz := tiny()
	sz.memBytes = 4096 // the server needs 48 conns x 2 KiB
	var stdout, stderr bytes.Buffer
	if code := repMain("fanin-1k", 1, sz, false, false, t.TempDir(), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed repetition printed a result: %s", stdout.String())
	}
	for _, want := range []string{"POST-MORTEM", "out of memory", "post-mortem written"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%.2000s", want, stderr.String())
		}
	}
}

// TestFaninOverloadSignature: at the timed length, fanin-1k is past the
// fair-share floor — RTOs fire and retransmits exceed switch drops — yet
// every op completes and verifies.
func TestFaninOverloadSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size fanin-1k")
	}
	m := mustRep(t, "fanin-1k", 1, defaultSizes(), false).Metrics
	if m["core.rto_expiries"] <= 0 || m["core.retransmits"] <= m["phys.switch_drops"] {
		t.Fatalf("rto_expiries %v, retransmits %v, switch_drops %v",
			m["core.rto_expiries"], m["core.retransmits"], m["phys.switch_drops"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestPercentileCountsMissesAsInfinite(t *testing.T) {
	var lat []sim.Time
	for i := 1; i <= 100; i++ {
		lat = append(lat, sim.Time(i)*sim.Microsecond)
	}
	if p := percentile(lat, 0, 99); p != 99 {
		t.Errorf("p99 of 1..100us = %v", p)
	}
	if p := percentile(lat, 0, 50); p != 50 {
		t.Errorf("p50 of 1..100us = %v", p)
	}
	if p := percentile(lat, 2, 99); p != inf || math.IsInf(p, 0) {
		t.Errorf("p99 with 2 misses in 102 = %v, want the finite miss marker", p)
	}
}
