package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
BenchmarkFigure1PropagationDelay-8   	       1	 712345678 ns/op	        41.00 median_ms	       390.0 p99_ms
BenchmarkTable1Infrastructure-8      	       1	      1234 ns/op
PASS
ok  	repro	145.2s
`
	entries, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries: %d", len(entries))
	}
	// Sorted by name; GOMAXPROCS suffix stripped.
	if entries[0].Name != "BenchmarkFigure1PropagationDelay" {
		t.Fatalf("name: %s", entries[0].Name)
	}
	if entries[0].Iterations != 1 {
		t.Fatalf("iterations: %d", entries[0].Iterations)
	}
	if entries[0].Metrics["ns/op"] != 712345678 || entries[0].Metrics["median_ms"] != 41 {
		t.Fatalf("metrics: %v", entries[0].Metrics)
	}
	if entries[1].Name != "BenchmarkTable1Infrastructure" || entries[1].Metrics["ns/op"] != 1234 {
		t.Fatalf("second entry: %+v", entries[1])
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":              "BenchmarkFoo",
		"BenchmarkFoo-128":            "BenchmarkFoo",
		"BenchmarkFoo":                "BenchmarkFoo",
		"BenchmarkFanout/sqrt-push-8": "BenchmarkFanout/sqrt-push",
		"BenchmarkFanout/sqrt-push":   "BenchmarkFanout/sqrt-push",
		"BenchmarkTrailingDash-":      "BenchmarkTrailingDash-",
		"BenchmarkMixedSuffix-8x":     "BenchmarkMixedSuffix-8x",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("%q: got %q, want %q", in, got, want)
		}
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("no benchmark lines must fail")
	}
}

// writeSnapshot writes a snapshot file for compare-mode tests.
func writeSnapshot(t *testing.T, entries []Entry) string {
	t.Helper()
	data, err := json.Marshal(Snapshot{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareMode(t *testing.T) {
	old := writeSnapshot(t, []Entry{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 50}},
	})

	// Improvement + small regression within threshold: passes.
	within := writeSnapshot(t, []Entry{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 300}},  // 3x faster
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 1150}}, // +15%
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 9}},
	})
	var out strings.Builder
	ok, err := runCompare(&out, old, within, 0.20, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("within-threshold compare failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkGone") {
		t.Error("missing benchmark not warned about")
	}

	// A >20% regression fails.
	regressed := writeSnapshot(t, []Entry{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 1300}}, // +30%
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 900}},
	})
	out.Reset()
	ok, err = runCompare(&out, old, regressed, 0.20, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGR ") || !strings.Contains(out.String(), "BenchmarkA") {
		t.Errorf("regression report missing offender:\n%s", out.String())
	}

	// A wider threshold tolerates the same delta.
	out.Reset()
	ok, err = runCompare(&out, old, regressed, 0.50, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("50% threshold should tolerate a 30% regression")
	}
}

// TestCompareNoiseFloor: regressions on sub-floor baselines are
// reported as NOISE but never fail — a microsecond-scale benchmark at
// -benchtime=1x cannot be gated by a fixed percentage.
func TestCompareNoiseFloor(t *testing.T) {
	old := writeSnapshot(t, []Entry{
		{Name: "BenchmarkMicro", Metrics: map[string]float64{"ns/op": 20_000}},
		{Name: "BenchmarkMacro", Metrics: map[string]float64{"ns/op": 5e8}},
	})
	noisy := writeSnapshot(t, []Entry{
		{Name: "BenchmarkMicro", Metrics: map[string]float64{"ns/op": 45_000}}, // +125%, under floor
		{Name: "BenchmarkMacro", Metrics: map[string]float64{"ns/op": 5.5e8}},  // +10%, fine
	})
	var out strings.Builder
	ok, err := runCompare(&out, old, noisy, 0.20, 1e6, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("sub-floor regression must not fail the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NOISE") {
		t.Errorf("sub-floor regression not flagged as NOISE:\n%s", out.String())
	}

	// The same delta above the floor still fails.
	slowMacro := writeSnapshot(t, []Entry{
		{Name: "BenchmarkMicro", Metrics: map[string]float64{"ns/op": 20_000}},
		{Name: "BenchmarkMacro", Metrics: map[string]float64{"ns/op": 7e8}}, // +40%
	})
	out.Reset()
	ok, err = runCompare(&out, old, slowMacro, 0.20, 1e6, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("above-floor regression slipped through:\n%s", out.String())
	}
}

// TestCompareAllocs: allocs/op is gated like ns/op, with its own noise
// floor, and a zero-alloc benchmark that starts allocating materially
// fails even though a percentage delta is undefined.
func TestCompareAllocs(t *testing.T) {
	old := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 10_000}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 0}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 8}},
	})

	// Allocation regression on the hot path fails even with ns/op flat.
	moreAllocs := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 15_000}}, // +50%
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 0}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 8}},
	})
	var out strings.Builder
	ok, err := runCompare(&out, old, moreAllocs, 0.20, 1e6, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("allocs/op regression slipped through:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("report does not name allocs/op:\n%s", out.String())
	}

	// Sub-floor allocation counts are noise, and a formerly-zero-alloc
	// benchmark fails once it allocates at or above the floor.
	noisy := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 10_500}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 2}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 20}}, // +150%, under floor
	})
	out.Reset()
	ok, err = runCompare(&out, old, noisy, 0.20, 1e6, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("sub-floor alloc noise failed the gate:\n%s", out.String())
	}

	brokeZero := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 10_000}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 500}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "allocs/op": 8}},
	})
	out.Reset()
	ok, err = runCompare(&out, old, brokeZero, 0.20, 1e6, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("zero-alloc benchmark started allocating and passed:\n%s", out.String())
	}
}

// TestCompareBytes: B/op is gated like allocs/op — its own noise
// floor, sub-floor churn is noise, and a zero-byte benchmark that
// starts allocating at or above the floor fails.
func TestCompareBytes(t *testing.T) {
	old := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 1 << 20}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 0}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 2048}},
	})

	// Byte regression on the hot path fails even with ns/op flat.
	moreBytes := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 1 << 21}}, // 2x
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 0}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 2048}},
	})
	var out strings.Builder
	ok, err := runCompare(&out, old, moreBytes, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("B/op regression slipped through:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "B/op") {
		t.Errorf("report does not name B/op:\n%s", out.String())
	}

	// Sub-floor byte counts are noise; a formerly-zero-byte benchmark
	// fails once it allocates at or above the floor.
	noisy := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 1.1 * (1 << 20)}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 128}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 8192}}, // +300%, under floor
	})
	out.Reset()
	ok, err = runCompare(&out, old, noisy, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("sub-floor byte noise failed the gate:\n%s", out.String())
	}

	brokeZero := writeSnapshot(t, []Entry{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 1 << 20}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 128 * 1024}},
		{Name: "BenchmarkTiny", Metrics: map[string]float64{"ns/op": 5e8, "B/op": 2048}},
	})
	out.Reset()
	ok, err = runCompare(&out, old, brokeZero, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("zero-byte benchmark started allocating and passed:\n%s", out.String())
	}
}

// TestCompareStalledLaneWindows: the sharded scheduling-quality gate.
// stalled_lane_windows regressions fail like any other metric, the
// metric is simply absent from unsharded benchmarks, sub-floor counts
// are noise, and improvements pass.
func TestCompareStalledLaneWindows(t *testing.T) {
	old := writeSnapshot(t, []Entry{
		{Name: "BenchmarkStress100kSharded", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 8000}},
		{Name: "BenchmarkStress100k", Metrics: map[string]float64{"ns/op": 5e9}},
		{Name: "BenchmarkNoStall", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 0}},
		{Name: "BenchmarkQuiet", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 10}},
	})

	// A stall regression fails even with ns/op flat: the run got no
	// slower yet, but the lookahead lost parallelism.
	regressed := writeSnapshot(t, []Entry{
		{Name: "BenchmarkStress100kSharded", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 44000}},
		{Name: "BenchmarkStress100k", Metrics: map[string]float64{"ns/op": 5e9}},
		{Name: "BenchmarkNoStall", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 0}},
		{Name: "BenchmarkQuiet", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 10}},
	})
	var out strings.Builder
	ok, err := runCompare(&out, old, regressed, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("stalled_lane_windows regression slipped through:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stalled_lane_windows") {
		t.Errorf("report does not name stalled_lane_windows:\n%s", out.String())
	}

	// Improvements and sub-floor churn pass; the unsharded benchmark is
	// simply not gated on the metric it does not report.
	improved := writeSnapshot(t, []Entry{
		{Name: "BenchmarkStress100kSharded", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 900}},
		{Name: "BenchmarkStress100k", Metrics: map[string]float64{"ns/op": 5e9}},
		{Name: "BenchmarkNoStall", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 0}},
		{Name: "BenchmarkQuiet", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 40}}, // 4x, under floor
	})
	out.Reset()
	ok, err = runCompare(&out, old, improved, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("stall improvement or sub-floor churn failed the gate:\n%s", out.String())
	}

	// A formerly stall-free benchmark that starts stalling at or above
	// the floor fails.
	brokeZero := writeSnapshot(t, []Entry{
		{Name: "BenchmarkStress100kSharded", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 8000}},
		{Name: "BenchmarkStress100k", Metrics: map[string]float64{"ns/op": 5e9}},
		{Name: "BenchmarkNoStall", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 500}},
		{Name: "BenchmarkQuiet", Metrics: map[string]float64{"ns/op": 5e9, "stalled_lane_windows": 10}},
	})
	out.Reset()
	ok, err = runCompare(&out, old, brokeZero, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("stall-free benchmark started stalling and passed:\n%s", out.String())
	}
}

// TestSnapshotFormats: the object snapshot with provenance loads; a
// bare entry array (the pre-note format) is rejected, naming the file.
func TestSnapshotFormats(t *testing.T) {
	entries := []Entry{{Name: "BenchmarkA", Iterations: 1, Metrics: map[string]float64{"ns/op": 42}}}

	v2, err := json.Marshal(Snapshot{Generated: "2026-08-08", Note: "test snapshot", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(t.TempDir(), "v2.json")
	if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	byName, err := loadSnapshot(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if byName["BenchmarkA"].Metrics["ns/op"] != 42 {
		t.Fatalf("v2 snapshot: %+v", byName)
	}

	bare, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	barePath := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(barePath, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(barePath); err == nil || !strings.Contains(err.Error(), barePath) {
		t.Fatalf("bare-array snapshot: %v, want a parse error naming %s", err, barePath)
	}
}

func TestEnvelopeBestOf(t *testing.T) {
	in := `BenchmarkA-8   1   300 ns/op   512 B/op   7 allocs/op
BenchmarkB-8   1   900 ns/op
BenchmarkA-8   2   100 ns/op   640 B/op   7 allocs/op
BenchmarkB-8   1   800 ns/op
BenchmarkA-8   1   200 ns/op   512 B/op   9 allocs/op
BenchmarkB-8   1   850 ns/op
`
	entries, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	out, err := envelope(entries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("entries: %d", len(out))
	}
	a := out[0]
	if a.Name != "BenchmarkA" || a.Runs != 3 || a.Iterations != 2 {
		t.Fatalf("A header: %+v", a)
	}
	// Min per metric gates; max per metric records the envelope top.
	if a.Metrics["ns/op"] != 100 || a.Metrics["B/op"] != 512 || a.Metrics["allocs/op"] != 7 {
		t.Fatalf("A min metrics: %v", a.Metrics)
	}
	if a.MetricsMax["ns/op"] != 300 || a.MetricsMax["B/op"] != 640 || a.MetricsMax["allocs/op"] != 9 {
		t.Fatalf("A max metrics: %v", a.MetricsMax)
	}
	if out[1].Metrics["ns/op"] != 800 || out[1].MetricsMax["ns/op"] != 900 {
		t.Fatalf("B envelope: %v / %v", out[1].Metrics, out[1].MetricsMax)
	}
}

func TestEnvelopeRunCountMismatch(t *testing.T) {
	in := `BenchmarkA-8   1   300 ns/op
BenchmarkA-8   1   200 ns/op
BenchmarkB-8   1   900 ns/op
BenchmarkA-8   1   100 ns/op
`
	entries, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := envelope(entries, 3); err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("want run-count mismatch naming BenchmarkB, got %v", err)
	}
}

func TestEnvelopeSnapshotCompares(t *testing.T) {
	// A best-of snapshot must flow through -compare unchanged: the
	// gate reads the min metrics and ignores the envelope ceiling.
	dir := t.TempDir()
	write := func(name string, snap Snapshot) string {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", Snapshot{Entries: []Entry{{
		Name: "BenchmarkA", Iterations: 1,
		Metrics:    map[string]float64{"ns/op": 2e6},
		MetricsMax: map[string]float64{"ns/op": 3e6},
		Runs:       3,
	}}})
	newPath := write("new.json", Snapshot{Entries: []Entry{{
		Name: "BenchmarkA", Iterations: 1,
		Metrics:    map[string]float64{"ns/op": 2.1e6},
		MetricsMax: map[string]float64{"ns/op": 9e6},
		Runs:       3,
	}}})
	var buf strings.Builder
	ok, err := runCompare(&buf, oldPath, newPath, 0.20, 1e6, 100, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("5%% min-envelope drift must pass despite max drift:\n%s", buf.String())
	}
}
