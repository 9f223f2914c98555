package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"multiedge/internal/sim"
)

func TestSampler(t *testing.T) {
	e := sim.NewEnv(1)
	v := 0.0
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			v = float64(i)
		}
	})
	s := NewSampler(e, 100, 900, func() float64 { return v })
	e.Run()
	if len(s.S.Values) < 8 {
		t.Fatalf("samples = %d", len(s.S.Values))
	}
	min, max, mean := s.S.Stats()
	if min > max || mean < min || mean > max {
		t.Errorf("stats incoherent: %v %v %v", min, max, mean)
	}
	if max < 50 {
		t.Errorf("max = %v, expected to track the rising metric", max)
	}
}

func TestSeriesRender(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Times = append(s.Times, sim.Time(i))
		s.Values = append(s.Values, float64(i%10))
	}
	out := s.Render(40, 5)
	if !strings.Contains(out, "samples 100") || !strings.Contains(out, "#") {
		t.Errorf("render:\n%s", out)
	}
	if (&Series{}).Render(10, 3) == "" {
		t.Error("empty render empty")
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	var l LatencyRecorder
	if l.Percentile(50) != 0 || l.Mean() != 0 {
		t.Error("empty recorder must report zero")
	}
	// 1..100 us, recorded shuffled.
	for i := 0; i < 100; i++ {
		l.Record(sim.Time((i*37)%100+1) * sim.Microsecond)
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50 * sim.Microsecond},
		{90, 90 * sim.Microsecond},
		{99, 99 * sim.Microsecond},
		{100, 100 * sim.Microsecond},
		{1, 1 * sim.Microsecond},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if l.Mean() != 50500*sim.Nanosecond {
		t.Errorf("mean = %v, want 50.5us", l.Mean())
	}
	if l.Count() != 100 {
		t.Errorf("count = %d", l.Count())
	}
	// Recording after a percentile query must re-sort.
	l.Record(1000 * sim.Microsecond)
	if got := l.Percentile(100); got != 1000*sim.Microsecond {
		t.Errorf("max after late record = %v", got)
	}
}

// TestLatencyRecorderProperty: percentiles are monotone in p and
// bounded by min/max of the samples.
func TestLatencyRecorderProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var l LatencyRecorder
		min, max := sim.Time(1<<62), sim.Time(0)
		for _, r := range raw {
			d := sim.Time(r % 1e6)
			l.Record(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := l.Percentile(p)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSamplerStop(t *testing.T) {
	e := sim.NewEnv(1)
	e.Go("driver", func(p *sim.Proc) { p.Sleep(2000) })
	// dur = 0: open-ended sampler. Its daemon ticks must not keep the
	// event queue alive once the driver finishes, and Stop must freeze
	// the series immediately.
	s := NewSampler(e, 100, 0, func() float64 { return 1 })
	e.At(450, func() { s.Stop() })
	e.Run()
	if n := len(s.S.Values); n != 4 {
		t.Fatalf("samples after Stop = %d, want 4 (ticks at 100..400)", n)
	}
	s.Stop() // idempotent
	var nilS *Sampler
	nilS.Stop() // nil-safe
}

func TestSamplerOpenEndedDoesNotLeak(t *testing.T) {
	e := sim.NewEnv(1)
	e.Go("driver", func(p *sim.Proc) { p.Sleep(1000) })
	s := NewSampler(e, 100, 0, func() float64 { return 1 })
	end := e.Run()
	if end > 1000 {
		t.Fatalf("run ended at %v: open-ended sampler kept the queue alive", end)
	}
	if n := len(s.S.Values); n < 8 || n > 11 {
		t.Fatalf("samples = %d, want ~10 (ticks while the driver ran)", n)
	}
}
