package bench

import (
	"reflect"
	"strings"
	"testing"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/sim"
)

// TestTrafficTimelineMatchesStats: the traffic timeline is a view of
// core.Stats. On a lossy striped transfer every column's bucket sum
// equals the final counter of the two endpoints, retransmissions and
// out-of-order arrivals show up, and the header keeps every column
// name apart.
func TestTrafficTimelineMatchesStats(t *testing.T) {
	cfg := cluster.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.03
	cfg.Seed = 21
	cl := cluster.New(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP
	const n = 256 * 1024
	src, dst := ep0.Alloc(n), ep1.Alloc(n)
	tl := NewTrafficTimeline(cl.Env, sim.Millisecond, ep0, ep1)
	var err error
	cl.Env.Go("app", func(p *sim.Proc) {
		err = doWait(p, c01, core.Op{Remote: dst, Local: src, Size: n, Kind: frame.OpWrite})
	})
	cl.Env.Run()
	tl.Stop()
	if err != nil {
		t.Fatalf("transfer failed: %v", err)
	}

	var sum trafficRow
	for _, r := range tl.rows {
		for i := range r {
			sum[i] += r[i]
		}
	}
	final := trafficOf([]*core.Endpoint{ep0, ep1})
	names := []string{"t"}
	for i, c := range trafficCols {
		names = append(names, c.name)
		if sum[i] != final[i] {
			t.Errorf("%s: buckets sum to %d, Stats say %d", c.name, sum[i], final[i])
		}
		if (c.name == "tx-retrans" || c.name == "rx-ooo") && sum[i] == 0 {
			t.Errorf("%s: no events in a lossy striped run", c.name)
		}
	}
	header, _, _ := strings.Cut(tl.Render(), "\n")
	if got := strings.Fields(header); !reflect.DeepEqual(got, names) {
		t.Errorf("header columns = %q, want %q", got, names)
	}
}
