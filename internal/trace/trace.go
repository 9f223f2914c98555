// Package trace provides the time-series sampling and latency
// percentiles behind the paper's network-traffic analysis (IPPS'07
// contribution (iii): "detailed analysis of edge-based protocols ...
// network traffic"). A Sampler turns any instantaneous metric into a
// time series that renders as a text chart; a LatencyRecorder reports
// exact operation-latency percentiles. Per-frame protocol traffic is
// counted once, in core.Stats, and rendered from there.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"multiedge/internal/sim"
)

// Series is a sampled time series.
type Series struct {
	Times  []sim.Time
	Values []float64
}

// Sampler periodically evaluates a metric while the simulation runs.
type Sampler struct {
	S *Series

	stopped bool
	timer   *sim.Timer
}

// NewSampler samples f every interval for the given duration (0 = until
// Stop is called or the simulation's live work drains). Ticks are
// daemon events, so an open-ended sampler never keeps the event queue
// alive on its own.
func NewSampler(env *sim.Env, every, dur sim.Time, f func() float64) *Sampler {
	s := &Sampler{S: &Series{}}
	stop := env.Now() + dur
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		s.S.Times = append(s.S.Times, env.Now())
		s.S.Values = append(s.S.Values, f())
		if dur > 0 && env.Now() >= stop {
			return
		}
		s.timer = env.AfterDaemon(every, tick)
	}
	s.timer = env.AfterDaemon(every, tick)
	return s
}

// Stop halts the sampler and cancels its pending tick so the series
// stops growing. Nil-safe and idempotent.
func (s *Sampler) Stop() {
	if s == nil || s.stopped {
		return
	}
	s.stopped = true
	s.timer.Stop()
}

// Stats returns min, max and mean of the series.
func (s *Series) Stats() (min, max, mean float64) {
	if len(s.Values) == 0 {
		return 0, 0, 0
	}
	min, max = s.Values[0], s.Values[0]
	var sum float64
	for _, v := range s.Values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return min, max, sum / float64(len(s.Values))
}

// Render draws the series as a fixed-height text chart.
func (s *Series) Render(width, height int) string {
	if len(s.Values) == 0 {
		return "(empty series)\n"
	}
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 8
	}
	min, max, mean := s.Stats()
	span := max - min
	if span == 0 {
		span = 1
	}
	// Downsample to width columns by averaging.
	cols := make([]float64, width)
	for c := 0; c < width; c++ {
		lo := c * len(s.Values) / width
		hi := (c + 1) * len(s.Values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for i := lo; i < hi && i < len(s.Values); i++ {
			sum += s.Values[i]
		}
		cols[c] = sum / float64(hi-lo)
	}
	var b strings.Builder
	for r := height - 1; r >= 0; r-- {
		thresh := min + span*float64(r)/float64(height)
		for _, v := range cols {
			if v > thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "min %.3g  max %.3g  mean %.3g  samples %d\n", min, max, mean, len(s.Values))
	return b.String()
}

// LatencyRecorder collects operation latency samples and reports exact
// percentiles (the samples are sorted on demand; with deterministic
// simulation the distribution itself is reproducible bit-for-bit).
// Useful where a mean hides the story: NACK-repair tails, multi-rail
// jitter.
type LatencyRecorder struct {
	samples []sim.Time
	sorted  bool
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d sim.Time) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns how many samples were recorded.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method; zero with no samples.
func (l *LatencyRecorder) Percentile(p float64) sim.Time {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	if p <= 0 {
		return l.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return l.samples[rank-1]
}

// Mean returns the arithmetic mean of the samples.
func (l *LatencyRecorder) Mean() sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range l.samples {
		sum += s
	}
	return sum / sim.Time(len(l.samples))
}
