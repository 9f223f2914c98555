// Tracing: the traffic analysis behind the paper's network-traffic
// results, rendered from the endpoints' protocol counters. A striped
// transfer over two lossy links prints operation progress polling,
// per-endpoint traffic totals, a bucketed traffic timeline and a
// sampled throughput series.
package main

import (
	"fmt"
	"os"

	"multiedge"
	"multiedge/internal/bench"
	"multiedge/internal/trace"
)

func main() {
	cfg := multiedge.TwoLinkUnordered1G(2)
	cfg.Link.LossProb = 0.02
	cl := multiedge.NewCluster(cfg)
	c01, _ := cl.Pair()
	ep0, ep1 := cl.Nodes[0].EP, cl.Nodes[1].EP

	const n = 2 << 20
	src := ep0.Alloc(n)
	dst := ep1.Alloc(n)

	// Bucket the pair's traffic every 2 ms until the transfer completes.
	tl := bench.NewTrafficTimeline(cl.Env, 2*multiedge.Millisecond, ep0, ep1)

	// Sample receive throughput (MB/s) every 250 us for 15 ms.
	var lastBytes uint64
	sampler := trace.NewSampler(cl.Env, 250*multiedge.Microsecond, 15*multiedge.Millisecond,
		func() float64 {
			b := ep1.Stats.DataBytesRecv
			mbps := float64(b-lastBytes) / 1e6 / (250 * multiedge.Microsecond).Seconds()
			lastBytes = b
			return mbps
		})

	var err error
	cl.Env.Go("xfer", func(p *multiedge.Proc) {
		defer tl.Stop()
		h, derr := c01.Do(p, multiedge.Op{Remote: dst, Local: src, Size: n, Kind: multiedge.OpWrite})
		if derr != nil {
			err = derr
			return
		}
		for !h.Test() {
			done, total := h.Progress()
			fmt.Printf("[%v] progress %d/%d bytes acknowledged\n", cl.Env.Now(), done, total)
			p.Sleep(3 * multiedge.Millisecond)
		}
		err = h.Err()
	})
	cl.Env.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracing: transfer failed:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Print(bench.TrafficSummary([]string{"sender", "receiver"}, ep0, ep1))
	fmt.Println("\ntraffic timeline (2 ms buckets, sender+receiver):")
	fmt.Print(tl.Render())
	fmt.Println("\nreceive throughput over time (MB/s):")
	fmt.Print(sampler.S.Render(64, 6))
}
