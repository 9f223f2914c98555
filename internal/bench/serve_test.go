package bench

import (
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// TestServeSmall is the tier-1 service-bench gate: a small session
// count against a 3-replica service must byte-verify every slot and
// leak nothing.
func TestServeSmall(t *testing.T) {
	r := RunServe(ServeOptions{Clients: 32, OpsPerClient: 3, Size: 512, Seed: 3})
	if !r.DataOK {
		t.Fatalf("serve corrupted data: %s", r)
	}
	if !r.LeakFree() {
		t.Fatalf("serve leaked post-close state: %s", r)
	}
	if want := 32 * 4; r.Ops != want { // writes + verify read per session
		t.Fatalf("expected %d ops, got %d", want, r.Ops)
	}
	if r.Failovers != 0 || r.Condemned != 0 {
		t.Fatalf("undisturbed run failed over: %s", r)
	}
}

// TestServeKill is the ISSUE 7 acceptance shape in miniature: one
// backend dies mid-run and every session must still finish
// byte-verified — in-flight calls journal, condemn the dead epoch, and
// re-land exactly once on a survivor. Each of the per-node stubs must
// condemn exactly the one killed backend.
func TestServeKill(t *testing.T) {
	base := RunServe(ServeOptions{Clients: 64, OpsPerClient: 4, Size: 1024, Seed: 7})
	if !base.DataOK || !base.LeakFree() {
		t.Fatalf("baseline failed: %s", base)
	}
	r := RunServe(ServeOptions{Clients: 64, OpsPerClient: 4, Size: 1024, Seed: 7,
		KillAt: base.Elapsed / 2})
	if !r.DataOK {
		t.Fatalf("kill run corrupted data: %s", r)
	}
	if !r.LeakFree() {
		t.Fatalf("kill run leaked post-close state: %s", r)
	}
	if r.Condemned == 0 || r.Condemned > uint64(r.ClientNodes) {
		t.Fatalf("condemned %d backends across %d stubs, want 1..%d: %s",
			r.Condemned, r.ClientNodes, r.ClientNodes, r)
	}
	if r.Failovers < r.Condemned || r.JournaledOps == 0 {
		t.Fatalf("failovers %d, journaled %d — the kill was not absorbed: %s",
			r.Failovers, r.JournaledOps, r)
	}
	if base.P99Us > 0 && r.P99Us > serveKillP99Bound(base.P99Us) {
		t.Errorf("killed p99 %.1fus exceeds the failover bound %.1fus (undisturbed p99 %.1fus)",
			r.P99Us, serveKillP99Bound(base.P99Us), base.P99Us)
	}
}

// TestServeDeterministic: identical seeds (and kill times) must produce
// identical traffic reports and timings through the whole service
// layer — balancer, failover and teardown included.
func TestServeDeterministic(t *testing.T) {
	opts := ServeOptions{Clients: 48, OpsPerClient: 3, Size: 512, Seed: 9,
		KillAt: 2 * sim.Millisecond}
	a := RunServe(opts)
	b := RunServe(opts)
	if a.Net != b.Net || a.Elapsed != b.Elapsed || a.Ops != b.Ops ||
		a.Failovers != b.Failovers || a.JournaledOps != b.JournaledOps {
		t.Fatalf("serve not deterministic:\n  %s\n  %s", a, b)
	}
}

// TestServeKillWithMetricsLeakFree: attaching a metrics registry must
// not change the kill run's leak verdict. The drain has to run past
// live-drain with the registry on too, or the killed backend's liveness
// timers never fire and the conns to it read as leaked.
func TestServeKillWithMetricsLeakFree(t *testing.T) {
	o := ServeOptions{Clients: 64, OpsPerClient: 4, Size: 1024, Seed: 7,
		Obs: cluster.ObsOptions{Metrics: true}}
	base := RunServe(o)
	if !base.DataOK || !base.LeakFree() {
		t.Fatalf("baseline with metrics failed: %s", base)
	}
	o.KillAt = base.Elapsed / 2
	if r := RunServe(o); !r.DataOK || !r.LeakFree() {
		t.Fatalf("kill run with metrics failed its gates: %s", r)
	}
}
