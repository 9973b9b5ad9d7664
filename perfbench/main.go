// Command perfbench is the repository's benchmark: it runs one
// workload, checks every campaign's outputs, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload prop-800 --seed 1 --seconds 20 --trace 0
//
// Workloads and the reasons they were chosen are listed in
// BENCHMARK.json; perfbench/INTERACTIONS.md maps each per-layer metric
// to the end-to-end metric and workload it should move. --trace 0
// prints the end-to-end metrics, measured with no spans recorded, with
// times in reference seconds (see host.go);
// --trace 1 runs the workload untraced and again with spans around
// every layer call, and prints the per-layer metrics, the tracing
// overhead and the determinism checks. Every run's result, failures and provenance
// (nproc, GOMAXPROCS, Go version, commit, seed) are kept in
// .bench_build/results/, and a traced run's spans in
// .bench_build/traces/.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// buildDir holds everything a run writes, inside the checkout it runs
// from; run.sh builds the binary there too, and .gitignore names it.
const buildDir = ".bench_build"

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

// workload runs one benchmark workload.
type workload interface {
	run(runConfig) (*outcome, error)
}

func workloads() map[string]workload {
	m := map[string]workload{"serve-chain": serveWorkload{}}
	for i := range campaignWorkloads {
		m[campaignWorkloads[i].name] = &campaignWorkloads[i]
	}
	return m
}

// provenance identifies the host and code a result set came from.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

// commit is the VCS revision the binary was built from or, in a
// checkout that is not a repository, a digest of the Go sources and
// go.mod files under the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .bench_build, .git and the like
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flags.Uint64("seed", 1, "workload seed")
	seconds := flags.Float64("seconds", 10, "measuring time")
	trace := flags.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if err := validateDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		return err
	}
	all := workloads()
	w, ok := all[*name]
	if !ok {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: buildDir}
	prov := provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: rc.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %+v\n", prov)

	out, err := w.run(rc)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		file := fmt.Sprintf("%s-seed%d.json", *name, *seed)
		if err := out.tr.write(filepath.Join(rc.dir, "traces"), file, prov); err != nil {
			return err
		}
	}
	res, err := render(defs, out.m, out.attempted, out.failed)
	if err != nil {
		return err
	}
	if err := saveResult(filepath.Join(rc.dir, "results"), prov, res, out); err != nil {
		return err
	}
	fmt.Println(res.line())
	return nil
}

// saveResult keeps each result set with its provenance, failures and
// every value the run measured (the raw host times too) under dir, one
// file per (workload, seed, trace) triple.
func saveResult(dir string, prov provenance, res result, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance         `json:"provenance"`
		Result     result             `json:"result"`
		Measured   map[string]float64 `json:"measured"`
		Problems   []string           `json:"problems,omitempty"`
	}{prov, res, out.m, out.problems}, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if prov.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", prov.Workload, prov.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// outcome accumulates one workload run's metrics and failures.
type outcome struct {
	m         map[string]float64
	attempted int
	failed    int
	problems  []string
	tr        *tracer
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// fail counts one failed operation.
func (o *outcome) fail(what string, problems ...string) {
	o.failed++
	for _, p := range problems {
		o.problems = append(o.problems, what+": "+p)
	}
}

// driftCheck is one value that must repeat exactly between two runs of
// one seed.
type driftCheck struct {
	name string
	a, b any
}

// drift records determinism.drift, the number of checks whose values
// differ; any drift fails the run.
func (o *outcome) drift(label string, checks []driftCheck) {
	var bad []string
	for _, c := range checks {
		if fmt.Sprint(c.a) != fmt.Sprint(c.b) {
			bad = append(bad, fmt.Sprintf("%s %v != %v", c.name, c.a, c.b))
		}
	}
	o.m["determinism.drift"] += float64(len(bad))
	o.attempted++
	if len(bad) > 0 {
		o.fail("determinism ("+label+")", bad...)
	}
}

// spanNames maps span names to the per-layer metric of their median
// per-campaign self time.
var spanNames = map[string]string{
	"server.submit":     "server.submit_s",
	"server.queue":      "server.queue_wait_s",
	"core.build":        "core.build_s",
	"sim.run":           "sim.run_s",
	"analysis.post_run": "analysis.post_run_s",
	"server.seal":       "server.seal_s",
	"store.write":       "store.write_s",
	"store.seal":        "store.seal_s",
	"store.fetch":       "store.fetch_s",
}

// spanMetrics derives the self-time metrics from the recorded spans,
// and the tracing overhead against the untraced campaigns' wall times.
func (o *outcome) spanMetrics(untracedWalls []float64) {
	byName, totals, roots := opSelf(o.tr.spans)
	for span, metric := range spanNames {
		o.m[metric] = median(byName[span])
	}
	var runs []float64
	for _, s := range o.tr.spans {
		if s.Name == "experiments.run" {
			runs = append(runs, s.dur())
		}
	}
	o.m["experiments.run_s"] = median(runs)
	o.m["trace.wall_s"] = median(roots)
	o.m["trace.self_sum_s"] = median(totals)
	o.m["trace.untraced_wall_s"] = median(untracedWalls)
	o.m["trace.overhead_s"] = o.m["trace.wall_s"] - o.m["trace.untraced_wall_s"]
}

// conductor fills the sim.conductor metrics from a telemetry row (all
// zero for single-engine runs). Lane windows are read from the
// per-lane-pair histogram: executed windows whose deadline another
// lane bound. Unconstrained drain windows are not in the telemetry and
// so not counted.
func (o *outcome) conductor(rows ...experiments.TelemetryRow) {
	var windows, lane, stalled, merged uint64
	for _, r := range rows {
		windows += r.ShardWindows
		stalled += r.ShardStalled
		merged += r.ShardMerged
		for _, p := range r.PairWindows {
			lane += p.Count - p.Stalled
		}
	}
	o.m["sim.conductor.windows"] = float64(windows)
	o.m["sim.conductor.lane_windows"] = float64(lane)
	o.m["sim.conductor.stalled"] = float64(stalled)
	o.m["sim.conductor.stall_ratio"] = ratio(float64(stalled), float64(lane))
	o.m["sim.conductor.merged"] = float64(merged)
}

// memDelta is the Go runtime's allocation and GC activity over one
// interval.
type memDelta struct {
	allocMB, gcCycles, gcPauseMS float64
}

func memDiff(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// memory fills the runtime metrics as per-campaign means of d, the
// activity over that many campaigns.
func (o *outcome) memory(d memDelta, campaigns int) {
	n := float64(max(campaigns, 1))
	o.m["runtime.alloc_mb"] = d.allocMB / n
	o.m["runtime.gc_cycles"] = d.gcCycles / n
	o.m["runtime.gc_pause_ms"] = d.gcPauseMS / n
}

// peakRSSMB is the process's peak resident set size since start or
// the last resetPeakRSS: VmHWM from /proc/self/status, or the rusage
// peak where that file is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// resetPeakRSS restarts the VmHWM mark at the current resident size
// (Linux clear_refs; without it peaks stay process-wide).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// deriveSeed scatters (seed, i) into the i-th campaign seed of a run
// with a splitmix64 finalizer, so neighbouring workload seeds share no
// campaign seeds.
func deriveSeed(seed, i uint64) uint64 {
	h := seed*0x9e3779b97f4a7c15 + i + 1
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
