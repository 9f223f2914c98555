package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/core"
	"multiedge/internal/sim"
)

// trafficCols are the protocol-traffic kinds of the paper's §4
// network-traffic analysis, in column order, each read from the
// core.Stats counter that counts it.
var trafficCols = [...]struct {
	name  string
	count func(*core.Stats) uint64
}{
	{"tx-data", func(s *core.Stats) uint64 { return s.DataFramesSent }},
	{"tx-retrans", func(s *core.Stats) uint64 { return s.Retransmissions }},
	{"tx-ack", func(s *core.Stats) uint64 { return s.CtrlAcksSent }},
	{"tx-nack", func(s *core.Stats) uint64 { return s.CtrlNacksSent }},
	{"rx-data", func(s *core.Stats) uint64 { return s.DataFramesRecv }},
	{"rx-dup", func(s *core.Stats) uint64 { return s.Duplicates }},
	{"rx-ooo", func(s *core.Stats) uint64 { return s.OOOArrivals }},
	{"rx-held", func(s *core.Stats) uint64 { return s.HeldFrames }},
	{"link-dead", func(s *core.Stats) uint64 { return s.LinkDeadEvents }},
	{"link-restore", func(s *core.Stats) uint64 { return s.LinkRestores }},
	{"peer-dead", func(s *core.Stats) uint64 { return s.PeerDeadEvents }},
}

// trafficRow holds one count per traffic column.
type trafficRow [len(trafficCols)]uint64

// trafficOf sums the traffic counters of the given endpoints.
func trafficOf(eps []*core.Endpoint) trafficRow {
	var r trafficRow
	for _, ep := range eps {
		for i, c := range trafficCols {
			r[i] += c.count(&ep.Stats)
		}
	}
	return r
}

// writeTrafficHeader writes the label column's title and every traffic
// column name, right-aligned and space-separated.
func writeTrafficHeader(b *strings.Builder, label string) {
	fmt.Fprintf(b, "%12s", label)
	for _, c := range trafficCols {
		fmt.Fprintf(b, " %12s", c.name)
	}
	b.WriteByte('\n')
}

func (r *trafficRow) write(b *strings.Builder, label string) {
	fmt.Fprintf(b, "%12s", label)
	for _, n := range r {
		fmt.Fprintf(b, " %12d", n)
	}
	b.WriteByte('\n')
}

// TrafficSummary renders each endpoint's protocol-traffic totals from
// its core.Stats, one row per endpoint under the matching label.
func TrafficSummary(labels []string, eps ...*core.Endpoint) string {
	var b strings.Builder
	writeTrafficHeader(&b, "")
	for i, ep := range eps {
		r := trafficOf([]*core.Endpoint{ep})
		r.write(&b, labels[i])
	}
	return b.String()
}

// TrafficTimeline buckets the protocol traffic of a set of endpoints
// over virtual time, a text version of the paper's traffic-over-time
// analysis. A daemon tick on each bucket boundary snapshots the
// endpoints' core.Stats; a row is the difference of two consecutive
// snapshots. The ticks never keep the simulation alive, but they run
// until Stop.
type TrafficTimeline struct {
	env    *sim.Env
	eps    []*core.Endpoint
	bucket sim.Time
	base   sim.Time // start of the first bucket
	last   trafficRow
	rows   []trafficRow
	timer  *sim.Timer
}

// NewTrafficTimeline starts a timeline of the given endpoints' summed
// traffic in buckets aligned to multiples of bucket.
func NewTrafficTimeline(env *sim.Env, bucket sim.Time, eps ...*core.Endpoint) *TrafficTimeline {
	t := &TrafficTimeline{env: env, eps: eps, bucket: bucket,
		base: env.Now() / bucket * bucket, last: trafficOf(eps)}
	t.timer = env.AtDaemon(t.base+bucket, t.tick)
	return t
}

func (t *TrafficTimeline) tick() {
	t.snapshot()
	t.timer = t.env.AfterDaemon(t.bucket, t.tick)
}

func (t *TrafficTimeline) snapshot() {
	now := trafficOf(t.eps)
	var d trafficRow
	for i := range d {
		d[i] = now[i] - t.last[i]
	}
	t.rows = append(t.rows, d)
	t.last = now
}

// Stop ends the timeline: it cancels the pending tick and closes the
// current bucket early when it has begun. Idempotent.
func (t *TrafficTimeline) Stop() {
	if t.timer == nil {
		return
	}
	t.timer.Stop()
	t.timer = nil
	if t.env.Now() > t.base+sim.Time(len(t.rows))*t.bucket {
		t.snapshot()
	}
}

// Render draws one row per bucket, labelled with the bucket's start.
func (t *TrafficTimeline) Render() string {
	var b strings.Builder
	writeTrafficHeader(&b, "t")
	for i := range t.rows {
		t.rows[i].write(&b, (t.base + sim.Time(i)*t.bucket).String())
	}
	return b.String()
}
