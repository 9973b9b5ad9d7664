package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 5}, // overlaps a: [1,5] counted once
		{ID: 3, Parent: 0, Name: "c", Start: 7, End: 8},
		{ID: 4, Parent: 0, Name: "d", Start: 9, End: 12}, // clipped to the root: 1 s inside
		{ID: 5, Parent: 2, Name: "e", Start: 2.5, End: 3},
	}
	want := []float64{10 - 4 - 1 - 1, 2, 3 - 0.5, 1, 3, 0.5}
	got := selfTimes(spans)
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestOpSelfSumsToRoot(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.epoch.Add(time.Duration(s * float64(time.Second))) }
	for op := 0; op < 2; op++ {
		root := tr.add(op, -1, "campaign", at(0), at(10))
		run := tr.add(op, root, "experiments.run", at(1), at(7))
		// The split runs past its parent: the last part is clipped.
		tr.addSplit(op, run, at(1), []part{{"core.build", 1}, {"sim.run", 3}, {"analysis.post_run", 5}})
		tr.add(op, root, "store.write", at(7), at(9))
	}
	byName, totals, roots := opSelf(tr.spans)
	if len(totals) != 2 || len(roots) != 2 {
		t.Fatalf("%d totals, %d roots; want 2 each", len(totals), len(roots))
	}
	for i := range totals {
		if !near(totals[i], roots[i]) {
			t.Errorf("op %d: self times sum to %v, root lasts %v", i, totals[i], roots[i])
		}
	}
	for name, want := range map[string]float64{
		"campaign": 2, "experiments.run": 0, "core.build": 1, "sim.run": 3,
		"analysis.post_run": 2, "store.write": 2,
	} {
		if got := median(byName[name]); !near(got, want) {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, -1, "campaign", time.Now(), time.Now()); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.addSplit(0, -1, time.Now(), []part{{"x", 1}})
	if err := tr.write(t.TempDir(), "x.json", provenance{}); err != nil {
		t.Fatal(err)
	}
}
