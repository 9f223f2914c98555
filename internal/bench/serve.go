package bench

import (
	"bytes"
	"fmt"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
	"multiedge/internal/svc"
)

// Service-layer stress: thousands of simulated client sessions in a
// closed loop against one replicated service, the workload ISSUE 7's
// service layer exists for. Sessions are spread over client nodes that
// share per-node stubs (sessions are distinguished by balancer token);
// every session byte-verifies its slot through the service at the end.
// The killed variant chaos-kills one backend mid-run and the gates
// require every session to finish verified anyway — in-flight calls on
// the dead replica fail over and land exactly once on a survivor.

// ServeOptions parameterizes one service-bench run.
type ServeOptions struct {
	Clients      int // simulated client sessions
	OpsPerClient int // closed-loop writes per session (plus one verify read)
	Size         int // bytes per operation (one session slot)
	Replicas     int // backend replicas behind the service name

	// KillAt, when nonzero, chaos-kills one backend (permanently) at
	// this virtual time. RenderServe derives it from the no-kill run's
	// midpoint.
	KillAt sim.Time
	Seed   int64

	Obs             cluster.ObsOptions
	DisableRecorder bool
}

// ServeResult is one service-bench measurement plus its gates. Its
// measured window runs from virtual time zero to the last session's
// verify; Ops counts reads and transaction retries too.
type ServeResult struct {
	Clients     int
	ClientNodes int
	Replicas    int
	Killed      bool
	latency

	// Service-layer accounting, summed over the per-node stubs.
	Failovers    uint64
	Condemned    uint64
	JournaledOps uint64
	CallsFailed  uint64
	// VerifyRetries counts sessions that had to re-run their
	// transaction because the replica holding their completed writes
	// died before the verify read. Zero unless a backend was killed.
	VerifyRetries int

	// DataOK: every session finished and byte-verified its slot.
	gates
	Net cluster.NetReport
	artifacts
}

// serveClientNodes caps how many endpoints the sessions spread over.
const serveClientNodes = 32

// serveFailoverBudget is each call's deadline before the stub journals
// the conn and fails over.
const serveFailoverBudget = 150 * sim.Millisecond

func serveFill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*13
	}
}

// RunServe drives opts.Clients closed-loop sessions against a
// Replicas-wide service. Each session owns one Size-byte slot of the
// service region and rewrites it OpsPerClient times with round-varying
// patterns, then reads it back and byte-verifies — through the service,
// so a failed-over session verifies against whichever replica its
// session rebound to. Affinity balancing keeps a session's reads on the
// replica its writes landed on.
func RunServe(opts ServeOptions) ServeResult {
	clients := opts.Clients
	if clients < 1 {
		clients = 1
	}
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 3
	}
	clientNodes := clients
	if clientNodes > serveClientNodes {
		clientNodes = serveClientNodes
	}
	cfg := cluster.OneLink1G(replicas + clientNodes)
	cfg.Seed = opts.Seed
	// The scaled endpoint plus the recovery stack the service layer
	// composes: supervised reconnect with fast detection, bounded dial
	// retries, and idle-side liveness so parked sessions notice a dead
	// replica too.
	cfg.Core.TimerWheelTick = 50 * sim.Microsecond
	cfg.Core.UseSQ = true
	// Detection and failover tuned for heavy incast: thousands of
	// sessions queue tens of milliseconds behind each other on the
	// backend rails, so the dead-peer verdict (and the failover budget
	// above it) must sit well above the congestion tail or healthy
	// backends get condemned for being slow.
	cfg.Core.Reconnect = true
	cfg.Core.DeadInterval = 50 * sim.Millisecond
	cfg.Core.RTOMax = 2 * sim.Millisecond
	cfg.Core.HeartbeatInterval = 10 * sim.Millisecond
	cfg.Core.MaxRetries = 3
	// The default redial schedule (8 attempts, exponential backoff)
	// outlasts the failover budget: a parked conn is still Reconnecting
	// when the budget fires, so the abandon path journals its in-flight
	// ops instead of finding them already drained by a terminal failure.
	cfg.Core.MemBytes = clients*opts.Size + (2 << 20)
	h := newHarness("serve", cfg, opts.Obs, opts.DisableRecorder)
	cl := h.cl

	reg := svc.NewRegistry()
	eps := make([]*core.Endpoint, replicas)
	for i := range eps {
		eps[i] = cl.Nodes[i].EP
	}
	s, err := reg.Register("serve", clients*opts.Size, eps...)
	if err != nil {
		panic(err)
	}

	// One stub per client node; FailoverBudget comfortably above both
	// the detection interval (a budget miss must find the conn parked)
	// and the congestion tail (a slow healthy backend is not a failure).
	stubs := make([]*svc.Client, clientNodes)
	for i := range stubs {
		stub, err := svc.Connect(cl.Nodes[replicas+i].EP, reg, "serve", svc.Options{
			Balancer:       svc.NewAffinity(svc.NewRoundRobin()),
			FailoverBudget: serveFailoverBudget,
		})
		if err != nil {
			panic(err)
		}
		stubs[i] = stub
	}

	if opts.KillAt > 0 {
		h.chaos().KillNode(opts.KillAt, s.Backends[0].Node)
	}

	finished, opsDone, verifyRetries := 0, 0, 0
	verified := true

	for i := 0; i < clients; i++ {
		i := i
		nodeIdx := i % clientNodes
		ep := cl.Nodes[replicas+nodeIdx].EP
		stub := stubs[nodeIdx]
		cl.Env.Go(fmt.Sprintf("serve%d", i), func(p *sim.Proc) {
			token := uint64(i)
			off := uint64(i * opts.Size)
			src := ep.Alloc(opts.Size)
			back := ep.Alloc(opts.Size)
			for k := 0; k < opts.OpsPerClient; k++ {
				serveFill(ep.Mem()[src:src+uint64(opts.Size)], byte(i*31+k*7+1))
				t0 := cl.Env.Now()
				if err := stub.Call(p, token, core.Op{Remote: off, Local: src,
					Size: opts.Size, Kind: frame.OpWrite}); err != nil {
					h.fail(1, err)
					break
				}
				h.rec.Record(cl.Env.Now() - t0)
				opsDone++
			}
			// Byte-verify the slot through the service: the affinity
			// binding routes the read to the replica holding the
			// session's writes. If the replica died AFTER the session's
			// last write completed there, the rebound read sees a slot
			// the session never wrote — its data died with the replica
			// (writes are single-copy) — so the session retries the
			// transaction once on the new binding, exactly as a real
			// client would. The undisturbed run must never need this.
			verifyOK := false
			for attempt := 0; attempt < 2 && !verifyOK; attempt++ {
				t0 := cl.Env.Now()
				if err := stub.Call(p, token, core.Op{Remote: off, Local: back,
					Size: opts.Size, Kind: frame.OpRead}); err != nil {
					h.fail(1, err)
					break
				}
				h.rec.Record(cl.Env.Now() - t0)
				opsDone++
				if bytes.Equal(ep.Mem()[back:back+uint64(opts.Size)],
					ep.Mem()[src:src+uint64(opts.Size)]) {
					verifyOK = true
					break
				}
				if attempt > 0 {
					break
				}
				verifyRetries++
				if err := stub.Call(p, token, core.Op{Remote: off, Local: src,
					Size: opts.Size, Kind: frame.OpWrite}); err != nil {
					h.fail(1, err)
					break
				}
				opsDone++
			}
			if !verifyOK {
				verified = false
			}
			if finished++; finished == clients {
				h.end = cl.Env.Now()
			}
		})
	}
	cl.Env.Go("serve-closer", func(p *sim.Proc) {
		for finished < clients {
			p.Sleep(sim.Millisecond)
		}
		for _, stub := range stubs {
			stub.Close(p)
		}
	})
	h.drain(600 * sim.Second)

	r := ServeResult{
		Clients:       clients,
		ClientNodes:   clientNodes,
		Replicas:      replicas,
		Killed:        opts.KillAt > 0,
		latency:       h.summary(opsDone, opts.Size),
		VerifyRetries: verifyRetries,
		Net:           cl.Collect(),
	}
	for _, stub := range stubs {
		r.Failovers += stub.Stats.Failovers
		r.Condemned += stub.Stats.BackendsCondemned
		r.JournaledOps += stub.Stats.JournaledOps
		r.CallsFailed += stub.Stats.CallsFailed
	}
	// Leak gates: every stub closed its conns, so no endpoint — the dead
	// backend included, whose parked conns fail terminally once their
	// redial budgets drain — may still table a connection.
	r.gates, r.artifacts = h.verdict(verified && finished == clients && h.failed == 0, "")
	return r
}

func (r ServeResult) String() string {
	kill := "    -"
	if r.Killed {
		kill = fmt.Sprintf("n%d X", r.Replicas-r.Replicas) // backend 0's node
	}
	return fmt.Sprintf("%5d clients/%2d nodes/%dR %s  %7d ops  %9.3fms  %9.0f ops/s  p50 %7.1fus  p99 %9.1fus  fo %3d  %s",
		r.Clients, r.ClientNodes, r.Replicas, kill, r.Ops, r.Elapsed.Micros()/1e3, r.OpsPerSec, r.P50Us, r.P99Us, r.Failovers, r.column())
}

// serveKillP99Bound bounds the chaos-kill run's p99: a call in flight
// on the dead replica pays at most the failover budget before it is
// re-issued, and the retry then rides the ordinary congestion tail. So
// the tail under a kill is bounded by budget + 2x the undisturbed p99 —
// failover is bounded, not open-ended.
func serveKillP99Bound(baseP99Us float64) float64 {
	return serveFailoverBudget.Micros() + 2*baseP99Us
}

// RenderServe runs the service bench twice — undisturbed, then with one
// backend chaos-killed at the undisturbed run's midpoint — and gates:
// both runs byte-verified and leak-free, the killed run's failovers
// exactly cover the per-stub condemnations, and the killed p99 within
// serveKillP99Bound of the baseline.
func RenderServe(clients, opsPerClient, size, replicas int, obsOpts cluster.ObsOptions) (out string, ok bool, results []ServeResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "Service scaling: N client sessions -> %d-replica service, affinity balancing, %d ops/session x %dB\n",
		replicas, opsPerClient, size)
	fmt.Fprintf(&b, "(per-node stubs, failover budget 150ms; killed row chaos-kills one backend at the baseline midpoint)\n\n")
	ok = true
	base := RunServe(ServeOptions{Clients: clients, OpsPerClient: opsPerClient, Size: size,
		Replicas: replicas, Seed: 42, Obs: obsOpts})
	results = append(results, base)
	ok = printRow(&b, base, "") && ok
	killAt := base.Elapsed / 2
	if killAt <= 0 {
		killAt = sim.Millisecond
	}
	killed := RunServe(ServeOptions{Clients: clients, OpsPerClient: opsPerClient, Size: size,
		Replicas: replicas, KillAt: killAt, Seed: 42, Obs: obsOpts})
	results = append(results, killed)
	ok = printRow(&b, killed, "") && ok
	if base.VerifyRetries != 0 {
		fmt.Fprintf(&b, "\nFAIL: undisturbed run needed %d verify retries — sessions lost data without a kill\n",
			base.VerifyRetries)
		ok = false
	}
	if killed.Condemned == 0 || killed.Failovers < killed.Condemned {
		fmt.Fprintf(&b, "\nFAIL: kill run condemned %d backends over %d failovers — the kill was not absorbed\n",
			killed.Condemned, killed.Failovers)
		ok = false
	}
	if base.P99Us > 0 && killed.P99Us > serveKillP99Bound(base.P99Us) {
		fmt.Fprintf(&b, "\nFAIL: killed p99 %.1fus exceeds the failover bound %.1fus (budget + 2x undisturbed p99 %.1fus)\n",
			killed.P99Us, serveKillP99Bound(base.P99Us), base.P99Us)
		ok = false
	}
	if !ok {
		fmt.Fprintf(&b, "\nFAIL: a serve run corrupted data, leaked state, or blew the failover bounds\n")
	}
	return b.String(), ok, results
}

// BenchRow converts one serve measurement into a bench-document row.
func (r ServeResult) BenchRow() BenchRow {
	name := fmt.Sprintf("serve-%d", r.Clients)
	if r.Killed {
		name += "-kill"
	}
	return benchRow(name, r.latency, r.gates, map[string]float64{
		"replicas":       float64(r.Replicas),
		"client_nodes":   float64(r.ClientNodes),
		"failovers":      float64(r.Failovers),
		"condemned":      float64(r.Condemned),
		"journaled_ops":  float64(r.JournaledOps),
		"verify_retries": float64(r.VerifyRetries),
	})
}
