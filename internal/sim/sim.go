// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (nanosecond resolution) through a
// priority queue of events. Two execution styles coexist:
//
//   - Event-driven: callbacks scheduled with At/After run inside the
//     scheduler. Protocol state machines use this style.
//   - Process-driven: goroutines spawned with Go run cooperatively, one
//     at a time, and block on Sleep, Signal.Wait or Mailbox.Recv.
//     Applications and benchmarks use this style.
//
// Exactly one entity (the scheduler or a single process) runs at any
// instant, so simulation state never needs locking, and runs with equal
// seeds are bit-for-bit reproducible.
//
// Hot-path allocation model: event records are recycled through a
// per-Env freelist and the priority queue is a concrete *event heap
// (no container/heap interface boxing). Schedulers that do not need a
// cancel handle use the SchedAt/SchedAfter family, which allocates
// nothing in steady state; the Arg variants additionally avoid the
// per-call closure by passing a single pointer-shaped argument to a
// long-lived func(any). At/After still return a *Timer handle (one
// small allocation) and Rearm re-targets an existing handle for free.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Convenient duration units expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is one scheduled callback. Events are recycled through the
// Env freelist; gen increments on every recycle so a stale *Timer
// handle from a previous life can never cancel the new occupant.
type event struct {
	at       Time
	seq      uint64 // tie-breaker: FIFO among equal-time events
	fn       func()
	fnArg    func(any) // set instead of fn by the Arg variants
	arg      any
	canceled bool
	daemon   bool // does not keep Run alive (see AfterDaemon)
	index    int  // heap index, -1 once popped
	gen      uint64
}

// eventHeap is a binary min-heap ordered by (at, seq). seq is unique,
// so the order is total and pop order is deterministic.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	ev.index = i
	h.up(i)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old)
	ev := old[0]
	old.swap(0, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		(*h).down(0)
	}
	ev.index = -1
	return ev
}

// Env is one simulation universe: a clock, an event queue, and a seeded
// random number generator. Create with NewEnv; drive with Run or RunUntil.
type Env struct {
	now    Time
	seq    uint64
	events eventHeap
	free   []*event // recycled event records
	live   int      // pending events that are neither canceled nor daemon
	rng    *rand.Rand

	yield     chan struct{} // process -> scheduler handoff
	nprocs    int
	procPanic any
	stopped   bool
	executed  uint64
}

// NewEnv creates a simulation environment whose random number generator is
// seeded with seed. Equal seeds yield identical simulations.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random number generator.
// It must only be used from inside the simulation (events or processes).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Executed reports how many events have executed so far.
func (e *Env) Executed() uint64 { return e.executed }

func (e *Env) getEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// putEvent recycles a popped event. The generation bump invalidates
// every Timer handle pointing at the old life.
func (e *Env) putEvent(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.canceled = false
	ev.daemon = false
	e.free = append(e.free, ev)
}

// Timer identifies a scheduled event and allows canceling it. The
// handle stays valid forever: once the event has fired (or been
// stopped) the underlying record may be recycled for a later schedule,
// and the generation snapshot makes Stop/Pending on the stale handle a
// no-op rather than a misfire against the new occupant.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// valid reports whether the handle still refers to the life of the
// event it was created for.
func (t *Timer) valid() bool {
	return t != nil && t.ev != nil && t.gen == t.ev.gen
}

// Stop cancels the timer's pending event. Stopping an already-fired or
// already-stopped timer is a no-op. It reports whether the event was still
// pending.
func (t *Timer) Stop() bool {
	if !t.valid() || t.ev.canceled || t.ev.index < 0 {
		return false
	}
	t.ev.canceled = true
	if !t.ev.daemon {
		t.env.live--
	}
	return true
}

// Pending reports whether the timer's event has neither fired nor been
// stopped.
func (t *Timer) Pending() bool {
	return t.valid() && !t.ev.canceled && t.ev.index >= 0
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: events must never move the clock backwards.
func (e *Env) At(at Time, fn func()) *Timer {
	ev := e.scheduleEvent(at, fn, nil, nil, false)
	return &Timer{env: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Env) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// SchedAt schedules fn at absolute time at without returning a cancel
// handle. It allocates nothing in steady state; hot paths that never
// stop their events use this instead of At.
func (e *Env) SchedAt(at Time, fn func()) { e.scheduleEvent(at, fn, nil, nil, false) }

// SchedAfter schedules fn d nanoseconds from now without returning a
// cancel handle. Negative d panics.
func (e *Env) SchedAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.scheduleEvent(e.now+d, fn, nil, nil, false)
}

// SchedAtArg schedules fn(arg) at absolute time at without returning a
// cancel handle. With a long-lived fn and a pointer-shaped arg the call
// performs no allocation at all — this is the zero-alloc replacement
// for scheduling a fresh capturing closure per frame.
func (e *Env) SchedAtArg(at Time, fn func(any), arg any) { e.scheduleEvent(at, nil, fn, arg, false) }

// SchedAfterArg schedules fn(arg) d nanoseconds from now without
// returning a cancel handle. Negative d panics.
func (e *Env) SchedAfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.scheduleEvent(e.now+d, nil, fn, arg, false)
}

// Rearm schedules fn to run d nanoseconds from now, reusing t as the
// cancel handle: a still-pending previous event is stopped first and
// the handle is re-pointed in place, so a periodically re-armed timer
// costs one Timer allocation for the lifetime of its owner. A nil t
// behaves like After.
func (e *Env) Rearm(t *Timer, d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	if t == nil {
		return e.After(d, fn)
	}
	t.Stop()
	ev := e.scheduleEvent(e.now+d, fn, nil, nil, false)
	t.env = e
	t.ev = ev
	t.gen = ev.gen
	return t
}

// RearmDaemon is Rearm with daemon semantics (see AfterDaemon): the
// re-armed event never keeps Run alive by itself. A nil t behaves like
// AfterDaemon.
func (e *Env) RearmDaemon(t *Timer, d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	if t == nil {
		return e.AfterDaemon(d, fn)
	}
	t.Stop()
	ev := e.scheduleEvent(e.now+d, fn, nil, nil, true)
	t.env = e
	t.ev = ev
	t.gen = ev.gen
	return t
}

// AtDaemon schedules a daemon event: it runs like any other event while
// the simulation is live, but does not by itself keep Run going — Run
// returns once only daemon (or canceled) events remain. Periodic
// observers (metric samplers) use daemon events so that a workload
// driving Run to completion is never kept alive by its own
// instrumentation.
func (e *Env) AtDaemon(at Time, fn func()) *Timer {
	ev := e.scheduleEvent(at, fn, nil, nil, true)
	return &Timer{env: e, ev: ev, gen: ev.gen}
}

// AfterDaemon schedules a daemon event d nanoseconds from now (see
// AtDaemon). Negative d panics.
func (e *Env) AfterDaemon(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.AtDaemon(e.now+d, fn)
}

func (e *Env) scheduleEvent(at Time, fn func(), fnArg func(any), arg any, daemon bool) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", at, e.now))
	}
	ev := e.getEvent()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.fnArg = fnArg
	ev.arg = arg
	ev.daemon = daemon
	e.seq++
	if !daemon {
		e.live++
	}
	e.events.push(ev)
	return ev
}

// Stop makes the current Run/RunUntil call return after the current event
// completes. Pending events stay queued and a later Run resumes them.
func (e *Env) Stop() { e.stopped = true }

// Run executes events until no live (non-daemon, non-canceled) events
// remain or Stop is called. It returns the time of the last executed
// event. Daemon events execute while live work is pending but never
// keep Run going on their own.
func (e *Env) Run() Time { return e.run(Time(1<<62-1), true) }

// RunUntil executes events with timestamps <= horizon, advancing the clock
// to each event's time. On return the clock rests at the later of its
// previous value and the last event executed; it never exceeds horizon.
// Unlike Run, an explicit horizon bounds daemon events too: they keep
// executing up to the horizon even with no live work left.
func (e *Env) RunUntil(horizon Time) Time { return e.run(horizon, false) }

func (e *Env) run(horizon Time, untilLiveDrained bool) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		next := e.events[0]
		if next.canceled {
			// Free canceled events whenever they surface, even past the
			// horizon: they are unobservable and only hold memory.
			e.events.pop()
			e.putEvent(next)
			continue
		}
		if next.at > horizon || (untilLiveDrained && e.live == 0) {
			break
		}
		e.events.pop()
		if !next.daemon {
			e.live--
		}
		e.now = next.at
		e.executed++
		// Snapshot the callback and recycle the record before running
		// it: the callback may schedule new events (which can then
		// reuse this record) but can no longer observe it.
		fn, fnArg, arg := next.fn, next.fnArg, next.arg
		e.putEvent(next)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		if e.procPanic != nil {
			p := e.procPanic
			e.procPanic = nil
			panic(p)
		}
	}
	return e.now
}

// Idle reports whether no events remain queued.
func (e *Env) Idle() bool { return len(e.events) == 0 }

// PendingLive returns the number of pending events that would keep Run
// going: scheduled, not canceled, and not daemon.
func (e *Env) PendingLive() int { return e.live }

// PendingEvents returns the number of scheduled, non-canceled events
// still queued, daemon or not. Teardown leak gates use it: after every
// connection is closed and Run has drained, a nonzero count means some
// timer survived its owner.
func (e *Env) PendingEvents() int {
	n := 0
	for _, ev := range e.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}
