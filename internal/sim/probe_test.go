package sim

import (
	"testing"
	"time"
)

// recordingProbe captures every dispatch notification.
type recordingProbe struct {
	classes  []EventClass
	handlers []Handler
	ops      []uint64
	times    []Time
}

func (p *recordingProbe) Dispatch(now Time, class EventClass, h Handler, op uint64, wall time.Duration) {
	p.classes = append(p.classes, class)
	p.handlers = append(p.handlers, h)
	p.ops = append(p.ops, op)
	p.times = append(p.times, now)
}

type countingHandler struct{ calls int }

func (h *countingHandler) HandleEvent(now Time, a, b uint64) { h.calls++ }

func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine()
	st := e.Stats()
	if st.Processed != 0 || st.Pending != 0 || st.MaxPending != 0 || st.Scheduled != 0 {
		t.Fatalf("fresh engine stats not zero: %+v", st)
	}
	h := &countingHandler{}
	for i := 0; i < 5; i++ {
		e.ScheduleCall(Time(i), h, 0, 0)
	}
	if st := e.Stats(); st.Pending != 5 || st.MaxPending != 5 || st.Scheduled != 5 {
		t.Fatalf("pre-run stats: %+v", st)
	}
	e.Run()
	st = e.Stats()
	if st.Processed != 5 || st.Pending != 0 {
		t.Fatalf("post-run stats: %+v", st)
	}
	if st.MaxPending != 5 {
		t.Fatalf("MaxPending = %d, want 5", st.MaxPending)
	}
	if st.Slots == 0 {
		t.Fatal("Slots should report the warmed arena capacity")
	}
	if st.Now != 4*Millisecond {
		t.Fatalf("Now = %v, want 4ms", st.Now)
	}
}

func TestEngineStatsMaxPendingHighWater(t *testing.T) {
	e := NewEngine()
	// Queue depth rises to 3, drains, rises to 2: high water stays 3.
	for i := 0; i < 3; i++ {
		schedule(e, 1, func(Time) {})
	}
	e.Run()
	schedule(e, 1, func(Time) {})
	schedule(e, 1, func(Time) {})
	e.Run()
	if st := e.Stats(); st.MaxPending != 3 {
		t.Fatalf("MaxPending = %d, want 3", st.MaxPending)
	}
}

func TestProbeObservesAllDispatchClasses(t *testing.T) {
	e := NewEngine()
	p := &recordingProbe{}
	e.SetProbe(p)
	h := &countingHandler{}
	e.ScheduleCall(2, h, 7, 0)
	fired := false
	timer := e.NewTimer(func(Time) { fired = true })
	timer.Reset(3)
	e.Run()
	want := []EventClass{EventCall, EventTimer}
	if len(p.classes) != len(want) {
		t.Fatalf("probe saw %d events, want %d", len(p.classes), len(want))
	}
	for i, c := range want {
		if p.classes[i] != c {
			t.Errorf("event %d class = %v, want %v", i, p.classes[i], c)
		}
	}
	if p.ops[0] != 7 || p.handlers[0] != h {
		t.Errorf("call reported op %d handler %v, want 7 %v", p.ops[0], p.handlers[0], h)
	}
	if p.handlers[1] != nil {
		t.Errorf("timer reported handler %v, want nil", p.handlers[1])
	}
	if h.calls != 1 || !fired {
		t.Errorf("handler ran %d times, timer fired %v; want 1, true", h.calls, fired)
	}
}

// TestProbeDoesNotPerturbExecution runs an identical event mix with
// and without a probe and asserts the execution order and final stats
// match — the probe determinism contract at the engine level.
func TestProbeDoesNotPerturbExecution(t *testing.T) {
	run := func(probe Probe) ([]int, EngineStats) {
		e := NewEngine()
		if probe != nil {
			e.SetProbe(probe)
		}
		var order []int
		rng := NewRNG(99)
		var timer *Timer
		timer = e.NewTimer(func(now Time) {
			order = append(order, -1)
			if len(order) < 40 {
				timer.Reset(rng.ExpTime(5 * Millisecond))
			}
		})
		timer.Reset(1)
		for i := 0; i < 30; i++ {
			i := i
			schedule(e, Time(rng.IntN(50)), func(Time) { order = append(order, i) })
		}
		e.Run()
		return order, e.Stats()
	}
	plainOrder, plainStats := run(nil)
	probedOrder, probedStats := run(&recordingProbe{})
	if len(plainOrder) != len(probedOrder) {
		t.Fatalf("event counts differ: %d vs %d", len(plainOrder), len(probedOrder))
	}
	for i := range plainOrder {
		if plainOrder[i] != probedOrder[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d", i, plainOrder[i], probedOrder[i])
		}
	}
	if plainStats != probedStats {
		t.Fatalf("stats diverge: %+v vs %+v", plainStats, probedStats)
	}
}

func TestEventClassString(t *testing.T) {
	cases := map[EventClass]string{
		EventCall:     "call",
		EventTimer:    "timer",
		EventClass(9): "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("EventClass(%d).String() = %q, want %q", c, got, want)
		}
	}
}
