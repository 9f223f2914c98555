package bench

import (
	"strings"
	"testing"

	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// TestFaninSmall is the tier-1 fan-in gate: a handful of connections
// through the scaled endpoint must verify every byte and leak nothing.
func TestFaninSmall(t *testing.T) {
	r := RunFanin(FaninOptions{Conns: 8, OpsPerConn: 8, Size: 256, Seed: 3})
	if !r.DataOK {
		t.Fatalf("fan-in corrupted data: %s", r)
	}
	if !r.LeakFree() {
		t.Fatalf("fan-in leaked post-close state: %s", r)
	}
	if r.Ops != 64 {
		t.Fatalf("expected 64 ops, got %d", r.Ops)
	}
}

// TestFaninChaosSmall re-runs the small fan-in with loss and duplication
// bursts live: the repair machinery must still deliver every byte and
// the teardown must still drain the event queue.
func TestFaninChaosSmall(t *testing.T) {
	r := RunFanin(FaninOptions{Conns: 8, OpsPerConn: 8, Size: 256, Chaos: true, Seed: 3})
	if !r.DataOK {
		t.Fatalf("fan-in under chaos corrupted data: %s", r)
	}
	if !r.LeakFree() {
		t.Fatalf("fan-in under chaos leaked post-close state: %s", r)
	}
}

// TestFaninDeterministic: identical seeds must produce identical traffic
// reports and timings — the scheduler and timer wheel may not introduce
// nondeterminism.
func TestFaninDeterministic(t *testing.T) {
	a := RunFanin(FaninOptions{Conns: 12, OpsPerConn: 6, Size: 256, Seed: 9})
	b := RunFanin(FaninOptions{Conns: 12, OpsPerConn: 6, Size: 256, Seed: 9})
	if a.Net != b.Net || a.Elapsed != b.Elapsed || a.Ops != b.Ops {
		t.Fatalf("fan-in not deterministic:\n  %s\n  %s", a, b)
	}
}

// TestFaninScaling is the ISSUE 4 acceptance shape: aggregate ops/s must
// scale with connection count because independent connections pipeline
// across each other's network round-trips. Short mode checks 64 vs 1
// (>=2x); full mode checks the acceptance criterion proper, 512 vs 1
// (>=3x), byte-verified.
func TestFaninScaling(t *testing.T) {
	base := RunFanin(FaninOptions{Conns: 1, OpsPerConn: 16, Size: 256, Seed: 42})
	if !base.DataOK || !base.LeakFree() {
		t.Fatalf("baseline failed: %s", base)
	}
	conns := 512
	if testing.Short() {
		conns = 64
	}
	many := RunFanin(FaninOptions{Conns: conns, OpsPerConn: 16, Size: 256, Seed: 42})
	if !many.DataOK || !many.LeakFree() {
		t.Fatalf("%d-conn run failed: %s", conns, many)
	}
	want := 3.0
	if testing.Short() {
		want = 2.0
	}
	if many.OpsPerSec < want*base.OpsPerSec {
		t.Errorf("%d conns reached %.0f ops/s, want >= %.0fx of 1-conn %.0f ops/s",
			conns, many.OpsPerSec, want, base.OpsPerSec)
	}
}

// TestReportsFailedOps: when operations fail — the server dies mid-run,
// or the endpoint refuses every issue — each failure must fail the
// run's verdict: never count as a completed op, never panic the
// harness. Runs with flight recorders must also attach a post-mortem
// naming the failure and keeping the injected fault timeline.
func TestReportsFailedOps(t *testing.T) {
	killServer := func(at sim.Time) func(*chaos.Runner) {
		return func(cr *chaos.Runner) { cr.KillNode(at, 0) }
	}
	type verdict struct {
		row             string
		passed          bool
		done, attempted int
		dump            *obs.PostMortem
	}
	for _, tc := range []struct {
		name     string
		wantDump bool
		run      func() verdict
	}{
		{"fanin", true, func() verdict {
			r := RunFanin(FaninOptions{Conns: 6, OpsPerConn: 16, Size: 256, Seed: 3,
				inject: killServer(300 * sim.Microsecond)})
			return verdict{r.String(), r.passed(), r.Ops, 6 * 16, r.Dump}
		}},
		{"noisy", true, func() verdict {
			r := RunNoisy(NoisyOptions{VictimOps: 200, QoS: true, Flood: true, Seed: 3,
				inject: killServer(2 * sim.Millisecond)})
			return verdict{r.String(), r.passed(), r.Ops, 200, r.Dump}
		}},
		{"smallops", false, func() verdict {
			cfg := cluster.OneLink10G(2)
			cfg.Core.EnforceRegistration = true // nothing registered: every issue fails
			r := RunSmallOps(cfg, 64, 256, 64)
			return verdict{r.String(), r.passed(), r.Count - r.Failed, r.Count, nil}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.run()
			t.Log(v.row)
			if v.passed {
				t.Fatalf("run with failed ops passed its verdict: %s", v.row)
			}
			if v.done >= v.attempted {
				t.Fatalf("failed ops counted as done: %d of %d", v.done, v.attempted)
			}
			if !tc.wantDump {
				return
			}
			if v.dump == nil || !strings.Contains(v.dump.Cause, "failedOps=") ||
				!strings.Contains(v.dump.Cause, "peer dead") {
				t.Fatalf("no post-mortem naming the failed ops: %+v", v.dump)
			}
			if len(v.dump.Faults) == 0 {
				t.Fatal("post-mortem lost the injected fault timeline")
			}
			t.Log(v.dump.Cause)
		})
	}
}
