package sim

import "testing"

// The Stop contract, pinned end to end: Stop halts at most one Run*
// call. Issued mid-run it halts that run; issued while idle it inhibits
// exactly the next call. Either way the queue survives and the call
// after that resumes. These tests exist because Run/RunUntil once reset
// the flag on entry, silently discarding any pre-run Stop.

// TestStopBeforeRunPreventsExecution: a Stop issued before Run starts
// must not be discarded — the inhibited Run executes nothing, and the
// rerun drains the intact queue.
func TestStopBeforeRunPreventsExecution(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 4; i++ {
		scheduleAt(e, Time(10*i), func(Time) { ran++ })
	}
	e.Stop()
	e.Run()
	if ran != 0 {
		t.Fatalf("inhibited Run executed %d events, want 0", ran)
	}
	if e.Pending() != 4 {
		t.Fatalf("inhibited Run left %d pending, want 4", e.Pending())
	}
	e.Run()
	if ran != 4 {
		t.Fatalf("rerun executed %d events, want 4", ran)
	}
}

// TestStopBeforeRunUntilLeavesClock: an inhibited RunUntil must not
// advance the clock to its deadline — time only moves when events can.
func TestStopBeforeRunUntilLeavesClock(t *testing.T) {
	e := NewEngine()
	scheduleAt(e, 5, func(Time) {})
	e.Stop()
	e.RunUntil(100)
	if e.Now() != 0 {
		t.Fatalf("inhibited RunUntil advanced clock to %v, want 0", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("inhibited RunUntil left %d pending, want 1", e.Pending())
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("rerun advanced clock to %v, want 100", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("rerun left %d pending, want 0", e.Pending())
	}
}

// TestStopInsideCallbackThenRerun: a mid-run Stop finishes the current
// event, halts the run with the queue intact, and — because Stop is
// one-shot — the next Run resumes rather than being inhibited.
func TestStopInsideCallbackThenRerun(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 6; i++ {
		scheduleAt(e, Time(i), func(Time) {
			ran++
			if ran == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("halted Run executed %d events, want 2", ran)
	}
	if e.Pending() != 4 {
		t.Fatalf("halted Run left %d pending, want 4", e.Pending())
	}
	e.Run()
	if ran != 6 {
		t.Fatalf("resumed Run executed %d events, want 6", ran)
	}
}

// TestStopIsOneShot: two Stops before two Runs inhibit both; a third
// Run with no pending Stop executes normally.
func TestStopIsOneShot(t *testing.T) {
	e := NewEngine()
	ran := 0
	schedule(e, 0, func(Time) { ran++ })
	e.Stop()
	e.Run()
	e.Stop()
	e.Run()
	if ran != 0 {
		t.Fatalf("inhibited Runs executed %d events, want 0", ran)
	}
	e.Run()
	if ran != 1 {
		t.Fatalf("third Run executed %d events, want 1", ran)
	}
}
