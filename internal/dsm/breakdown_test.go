package dsm_test

import (
	"fmt"
	"testing"

	"multiedge/internal/apps"
	"multiedge/internal/cluster"
	"multiedge/internal/dsm"
	"multiedge/internal/sim"
)

// TestBreakdownWithinBody runs Radix on 16 nodes of 2Lu-1G (the Fig. 6
// configuration) and requires every node's time breakdown to fit inside
// that node's own body duration: each instant is charged to exactly one
// category, so the five categories can never sum past the wall they
// decompose. Diff generation inside a barrier or lock release is the
// overlap this guards — it belongs to Overhead, not also to the wait.
func TestBreakdownWithinBody(t *testing.T) {
	const nodes = 16
	app := apps.NewRadix(4096, nodes)
	shared := app.SharedBytes()
	if rem := shared % dsm.PageSize; rem != 0 {
		shared += dsm.PageSize - rem
	}
	cfg := cluster.TwoLinkUnordered1G(nodes)
	cfg.Core.MemBytes = shared + shared/2 + (8 << 20)
	cl := cluster.New(cfg)
	sys := dsm.New(cl, cl.FullMesh(), dsm.Config{SharedBytes: shared})
	app.Init(sys)
	body := make([]sim.Time, nodes)
	for _, in := range sys.Insts {
		in := in
		cl.Env.Go(fmt.Sprintf("radix%d", in.Node()), func(p *sim.Proc) {
			t0 := cl.Env.Now()
			app.Node(p, in)
			body[in.Node()] = cl.Env.Now() - t0
		})
	}
	cl.Env.Run()
	if msg := app.Verify(sys); msg != "" {
		t.Fatal(msg)
	}
	var overhead sim.Time
	for _, in := range sys.Insts {
		b := in.B
		overhead += b.Overhead
		if body[in.Node()] == 0 {
			t.Fatalf("node %d body never finished", in.Node())
		}
		if b.Total() > body[in.Node()] {
			t.Errorf("node %d: breakdown %v (compute %v data %v lock %v barrier %v overhead %v) exceeds body %v",
				in.Node(), b.Total(), b.Compute, b.Data, b.Lock, b.Barrier, b.Overhead, body[in.Node()])
		}
	}
	if overhead == 0 {
		t.Fatal("no twin/diff overhead charged (the run no longer exercises the flush overlap)")
	}
}
