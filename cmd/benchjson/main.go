// Command benchjson converts `go test -bench` output on stdin into a
// JSON snapshot: one entry per benchmark with its iteration count and
// every reported metric (ns/op, B/op, allocs/op, custom ReportMetric
// values), wrapped with a generation date and an optional -note line.
// The Makefile's bench-baseline target uses it to (re)generate
// BENCH_baseline.json, a committed reference snapshot.
//
//	go test -bench=. -benchmem -benchtime=1x -run='^$' . | benchjson -note "..." > BENCH_baseline.json
//
// With -best-of N the input is expected to hold N runs of every
// benchmark (go test -count=N); each is collapsed to a min/max
// envelope — the per-metric minimum lands in metrics (what -compare
// gates on, being the least noise-contaminated run) and the maximum in
// metrics_max. The bench-compare target measures with -count=3 this
// way, so a single slow run cannot fail the gate:
//
//	go test -bench=. -benchmem -benchtime=1x -count=3 -run='^$' . | benchjson -best-of 3
//
// Compare mode diffs two snapshots and fails on ns/op, B/op,
// allocs/op or stalled_lane_windows regressions — the Makefile's
// bench-compare / bench-stress-compare targets and the CI perf gate.
// stalled_lane_windows is the sharded conductor's scheduling-quality
// metric (lane-windows lost to the conservative lookahead, reported
// by the stress benchmarks); being a deterministic event count it
// gets its own small noise floor (-stall-floor) rather than the
// allocation one:
//
//	benchjson -compare [-threshold 0.20] old.json new.json
//
// Exit status is non-zero when any benchmark present in both files
// regressed by more than the threshold (default 20%). Improvements
// and new benchmarks never fail; benchmarks missing from the new
// snapshot are reported as a warning. Three noise floors keep the
// gate stable: ns/op regressions on baselines under -floor
// nanoseconds (default 1 ms), B/op regressions on baselines under
// -bytes-floor bytes (default 64 KiB) and allocs/op regressions on
// baselines under -alloc-floor allocations (default 100) are reported
// but never fail — at -benchtime=1x a microsecond-, few-alloc- or
// few-KiB-scale measurement is dominated by scheduler and
// one-time-init noise, and a fixed percentage threshold on it only
// produces flaky gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark result. In -best-of mode Metrics holds the
// per-metric minimum over the N runs (the envelope floor the compare
// gate diffs against), MetricsMax the per-metric maximum (the noise
// envelope's ceiling, recorded for provenance) and Runs the N.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	MetricsMax map[string]float64 `json:"metrics_max,omitempty"`
	Runs       int                `json:"runs,omitempty"`
}

// Snapshot is the on-disk format: the entries plus provenance — when
// the snapshot was generated and on what occasion.
type Snapshot struct {
	Generated string  `json:"generated,omitempty"`
	Note      string  `json:"note,omitempty"`
	Entries   []Entry `json:"entries"`
}

func main() {
	var (
		compare    = flag.Bool("compare", false, "compare two snapshots: benchjson -compare old.json new.json")
		threshold  = flag.Float64("threshold", 0.20, "maximum tolerated fractional ns/op or allocs/op regression in -compare mode")
		floor      = flag.Float64("floor", 1e6, "baseline ns/op below which regressions are reported but never fail (noise floor)")
		allocFloor = flag.Float64("alloc-floor", 100, "baseline allocs/op below which allocation regressions are reported but never fail")
		bytesFloor = flag.Float64("bytes-floor", 64*1024, "baseline B/op below which byte regressions are reported but never fail")
		stallFloor = flag.Float64("stall-floor", 64, "baseline stalled_lane_windows below which stall regressions are reported but never fail")
		note       = flag.String("note", "", "provenance note recorded in the snapshot")
		bestOf     = flag.Int("best-of", 1, "collapse N repeated runs per benchmark (go test -count=N) into a min/max envelope; the min is what -compare gates on")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two snapshot files (old.json new.json)")
			os.Exit(2)
		}
		ok, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *floor, *allocFloor, *bytesFloor, *stallFloor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	entries, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *bestOf > 1 {
		entries, err = envelope(entries, *bestOf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	snap := Snapshot{
		Generated: time.Now().UTC().Format("2006-01-02"),
		Note:      *note,
		Entries:   entries,
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// envelope collapses n repeated runs of each benchmark into one entry
// per name: the per-metric minimum in Metrics (the best run is the
// least noise-contaminated measurement, so it is the stable value to
// baseline and gate on) and the per-metric maximum in MetricsMax.
// Every benchmark must appear exactly n times — anything else means
// the -count flag and -best-of disagree, which would silently gate on
// a partial envelope.
func envelope(entries []Entry, n int) ([]Entry, error) {
	byName := make(map[string]*Entry)
	seen := make(map[string]int)
	var order []string
	for _, e := range entries {
		seen[e.Name]++
		acc, ok := byName[e.Name]
		if !ok {
			c := e
			c.Runs = n
			c.Metrics = make(map[string]float64, len(e.Metrics))
			c.MetricsMax = make(map[string]float64, len(e.Metrics))
			for k, v := range e.Metrics {
				c.Metrics[k] = v
				c.MetricsMax[k] = v
			}
			byName[e.Name] = &c
			order = append(order, e.Name)
			continue
		}
		if e.Iterations > acc.Iterations {
			acc.Iterations = e.Iterations
		}
		for k, v := range e.Metrics {
			if lo, ok := acc.Metrics[k]; !ok || v < lo {
				acc.Metrics[k] = v
			}
			if hi, ok := acc.MetricsMax[k]; !ok || v > hi {
				acc.MetricsMax[k] = v
			}
		}
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		if seen[name] != n {
			return nil, fmt.Errorf("-best-of %d: benchmark %s ran %d time(s); pass -count=%d to go test", n, name, seen[name], n)
		}
		out = append(out, *byName[name])
	}
	return out, nil
}

// loadSnapshot reads a snapshot file in the object format.
func loadSnapshot(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	byName := make(map[string]Entry, len(snap.Entries))
	for _, e := range snap.Entries {
		byName[e.Name] = e
	}
	return byName, nil
}

// runCompare diffs new against old on ns/op, B/op, allocs/op and
// stalled_lane_windows, printing one line per shared benchmark and
// metric. It reports ok=false when any regression exceeds threshold
// on a benchmark whose baseline is at or above the metric's noise
// floor; sub-floor regressions are flagged NOISE and never fail.
func runCompare(w io.Writer, oldPath, newPath string, threshold, floor, allocFloor, bytesFloor, stallFloor float64) (bool, error) {
	oldBy, err := loadSnapshot(oldPath)
	if err != nil {
		return false, err
	}
	newBy, err := loadSnapshot(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(oldBy))
	for name := range oldBy {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	diff := func(name, metric string, oldV, newV, noiseFloor float64) {
		delta := newV/oldV - 1
		status := "ok   "
		if delta > threshold {
			if oldV < noiseFloor {
				status = "NOISE"
			} else {
				status = "REGR "
				regressions++
			}
		}
		fmt.Fprintf(w, "%s %-36s %14.0f -> %14.0f %s  %+7.1f%%\n",
			status, name, oldV, newV, metric, delta*100)
	}
	for _, name := range names {
		oldE := oldBy[name]
		newE, ok := newBy[name]
		if !ok {
			fmt.Fprintf(w, "WARN  %-36s missing from %s\n", name, newPath)
			continue
		}
		oldNs, okOld := oldE.Metrics["ns/op"]
		newNs, okNew := newE.Metrics["ns/op"]
		if okOld && okNew && oldNs > 0 {
			diff(name, "ns/op", oldNs, newNs, floor)
		}
		oldBytes, okOld := oldE.Metrics["B/op"]
		newBytes, okNew := newE.Metrics["B/op"]
		switch {
		case !okOld || !okNew:
			// Legacy baseline without -benchmem: nothing to gate.
		case oldBytes > 0:
			diff(name, "B/op", oldBytes, newBytes, bytesFloor)
		case newBytes >= bytesFloor:
			// A zero-byte benchmark started allocating materially.
			regressions++
			fmt.Fprintf(w, "REGR  %-36s %14.0f -> %14.0f B/op\n", name, oldBytes, newBytes)
		}
		oldAllocs, okOld := oldE.Metrics["allocs/op"]
		newAllocs, okNew := newE.Metrics["allocs/op"]
		switch {
		case !okOld || !okNew:
			// Legacy baseline without -benchmem: nothing to gate.
		case oldAllocs > 0:
			diff(name, "allocs/op", oldAllocs, newAllocs, allocFloor)
		case newAllocs >= allocFloor:
			// A zero-alloc benchmark started allocating materially.
			regressions++
			fmt.Fprintf(w, "REGR  %-36s %14.0f -> %14.0f allocs/op\n", name, oldAllocs, newAllocs)
		}
		oldStall, okOld := oldE.Metrics["stalled_lane_windows"]
		newStall, okNew := newE.Metrics["stalled_lane_windows"]
		switch {
		case !okOld || !okNew:
			// Not a sharded stress benchmark: nothing to gate.
		case oldStall > 0:
			diff(name, "stalled_lane_windows", oldStall, newStall, stallFloor)
		case newStall >= stallFloor:
			// A stall-free benchmark started stalling materially — the
			// lookahead bounds (or the deadline computation) regressed.
			regressions++
			fmt.Fprintf(w, "REGR  %-36s %14.0f -> %14.0f stalled_lane_windows\n", name, oldStall, newStall)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%% vs %s\n",
			regressions, threshold*100, oldPath)
		return false, nil
	}
	fmt.Fprintf(w, "\nno ns/op, B/op, allocs/op or stalled_lane_windows regression beyond %.0f%% vs %s\n", threshold*100, oldPath)
	return true, nil
}

// stripProcSuffix removes a trailing -<digits> GOMAXPROCS suffix,
// leaving hyphens inside the benchmark name (sub-benchmarks like
// /sqrt-push) intact.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// parse extracts benchmark lines ("BenchmarkX-8  1  123 ns/op ...")
// from mixed `go test` output.
func parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{
			// Strip the -GOMAXPROCS suffix so snapshots diff cleanly
			// across machines.
			Name:       stripProcSuffix(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}
