package experiments_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The golden-artifact invariant harness: every spec's run directory
// must be byte-identical at -parallel 1 and -parallel 8. This promotes
// the hot-path overhaul's manual `diff -r` gate into a permanent test:
// any change that makes an experiment's output depend on worker count,
// scheduling, or map iteration order fails here, for the built-in
// paper specs, the new D1-D3 fault specs, and every shipped scenario
// file (fault schedules included).

const goldenSeed = 977

// goldenShortSpecs is the -short tier: the cheap core of the registry
// plus all three dependability specs. The full tier runs everything.
var goldenShortSpecs = map[string]bool{
	"T1": true, "network": true, "T2": true,
	"D1": true, "D2": true, "D3": true,
}

// goldenShortScenarios is the -short tier's scenario subset. The
// partition-heal file is the acceptance gate for fault determinism,
// relay-compare for relay-protocol determinism; both always run.
var goldenShortScenarios = map[string]bool{
	"paper-baseline.json": true,
	"partition-heal.json": true,
	"relay-compare.json":  true,
}

// runGolden executes the specs at the given parallelism and writes a
// run directory, sealed with its digest manifest — so the invariance
// gate also covers the Merkle root. Failures inside any run are
// fatal: a spec that cannot execute has no artifact to compare. The
// returned report lets scenario runs embed scenario.json before
// sealing.
func runGolden(t *testing.T, specs []experiments.Spec, dir string, parallel int, sets []*scenario.Set) {
	t.Helper()
	runGoldenAt(t, specs, dir, parallel, sets, experiments.ScaleSmall, 2)
}

// runGoldenAt is runGolden with an explicit scale and repeat count —
// the stress tier runs the 100k scenario at its full size with a
// single repeat per parallelism setting.
func runGoldenAt(t *testing.T, specs []experiments.Spec, dir string, parallel int, sets []*scenario.Set, scale experiments.Scale, repeats int) {
	t.Helper()
	report, err := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed:     goldenSeed,
		Scale:    scale,
		Repeats:  repeats,
		Parallel: parallel,
	})
	if err != nil {
		t.Fatalf("campaign at parallel=%d: %v", parallel, err)
	}
	st := store.NewFS(dir)
	if err := experiments.WriteArtifacts(st, report); err != nil {
		t.Fatalf("write artifacts: %v", err)
	}
	if len(sets) > 0 {
		if err := scenario.WriteArtifact(st, sets); err != nil {
			t.Fatalf("write scenario artifact: %v", err)
		}
	}
	if err := experiments.WriteManifest(st, report); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if err := store.Verify(st); err != nil {
		t.Fatalf("sealed run dir fails verification: %v", err)
	}
}

// dirFiles returns every file under root as sorted relative paths.
func dirFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	sort.Strings(files)
	return files
}

// assertDirsIdentical compares two run directories byte for byte.
func assertDirsIdentical(t *testing.T, a, b string) {
	t.Helper()
	filesA, filesB := dirFiles(t, a), dirFiles(t, b)
	if len(filesA) != len(filesB) {
		t.Fatalf("run directories differ in file count: %d vs %d\n%v\n%v", len(filesA), len(filesB), filesA, filesB)
	}
	for i, rel := range filesA {
		if filesB[i] != rel {
			t.Fatalf("run directories differ in layout: %s vs %s", rel, filesB[i])
		}
		da, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s differs between the compared runs (%d vs %d bytes)", rel, len(da), len(db))
		}
	}
}

// referenceDigestsPath is the committed cross-commit pin: the SHA-256
// of every file in each harness's reference run directory (seed
// goldenSeed), one "key path digest" line per file. The parallel and
// shard invariance gates compare runs of one commit with each other;
// this table is what catches a deterministic behaviour change between
// commits. Updating it is deliberate: a failing check writes the
// observed table for its key to a temporary file and logs the path.
const referenceDigestsPath = "testdata/reference_digests.txt"

// loadReferenceDigests parses the committed table into key → relative
// path → hex digest. Blank lines and '#' comments are skipped.
func loadReferenceDigests(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(referenceDigestsPath)
	if err != nil {
		t.Fatalf("read reference digests: %v", err)
	}
	table := map[string]map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s:%d: want \"key path digest\", got %q", referenceDigestsPath, n+1, line)
		}
		if table[f[0]] == nil {
			table[f[0]] = map[string]string{}
		}
		table[f[0]][f[1]] = f[2]
	}
	return table
}

// checkReferenceDigests compares every file of the run directory dir
// with the committed table entries under key. A mismatch names each
// differing file with its wanted and observed digest.
func checkReferenceDigests(t *testing.T, key, dir string) {
	t.Helper()
	want := loadReferenceDigests(t)[key]
	got := map[string]string{}
	for _, rel := range dirFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.ToSlash(rel)] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	paths := make([]string, 0, len(got)+len(want))
	for rel := range got {
		paths = append(paths, rel)
	}
	for rel := range want {
		if _, ok := got[rel]; !ok {
			paths = append(paths, rel)
		}
	}
	sort.Strings(paths)
	var diffs []string
	for _, rel := range paths {
		if want[rel] != got[rel] {
			diffs = append(diffs, fmt.Sprintf("%s: want %s, got %s", rel, orAbsent(want[rel]), orAbsent(got[rel])))
		}
	}
	if len(diffs) == 0 {
		return
	}
	var observed strings.Builder
	for _, rel := range paths {
		if d, ok := got[rel]; ok {
			fmt.Fprintf(&observed, "%s %s %s\n", key, rel, d)
		}
	}
	t.Errorf("reference run %q differs from %s:\n%s", key, referenceDigestsPath, strings.Join(diffs, "\n"))
	f, err := os.CreateTemp("", "reference-digests-*.txt")
	if err != nil {
		t.Logf("cannot save the observed table: %v", err)
		return
	}
	defer f.Close()
	if _, err := f.WriteString(observed.String()); err != nil {
		t.Logf("cannot save the observed table: %v", err)
		return
	}
	t.Logf("observed table for %q written to %s", key, f.Name())
}

func orAbsent(digest string) string {
	if digest == "" {
		return "(absent)"
	}
	return digest
}

// goldenTier names the spec selection a harness ran, so the -short
// and full tiers pin their different reference directories separately.
func goldenTier(full bool) string {
	if full {
		return "full"
	}
	return "short"
}

// TestGoldenBuiltinSpecsParallelInvariance runs the built-in registry
// (the full set, or the short tier under -short) at both parallelism
// settings and asserts byte-identical run directories.
func TestGoldenBuiltinSpecsParallelInvariance(t *testing.T) {
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if testing.Short() && !goldenShortSpecs[s.ID] {
			continue
		}
		if s.ID == "R1" || s.ID == "R2" {
			// The relay specs have their own invariance test below so
			// make test-relay can select them; running them here too
			// would double the full tier's heaviest sweeps.
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
	runGolden(t, specs, seq, 1, nil)
	checkReferenceDigests(t, "builtin-"+goldenTier(!testing.Short()), seq)
	runGolden(t, specs, par, 8, nil)
	assertDirsIdentical(t, seq, par)
}

// TestGoldenScenarioArtifactsParallelInvariance compiles every shipped
// scenario file (sweep variants and fault schedules included) and
// asserts the same invariance, per file, with the embedded
// scenario.json included in the comparison — the full `ethrepro
// -scenario f.json -out dir` surface.
func TestGoldenScenarioArtifactsParallelInvariance(t *testing.T) {
	pattern := filepath.Join("..", "..", "examples", "scenarios", "*.json")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario files match %s", pattern)
	}
	sort.Strings(paths)
	sawPartitionHeal, sawRelayCompare := false, false
	for _, path := range paths {
		name := filepath.Base(path)
		if testing.Short() && !goldenShortScenarios[name] {
			continue
		}
		switch name {
		case "partition-heal.json":
			sawPartitionHeal = true
		case "relay-compare.json":
			sawRelayCompare = true
		}
		t.Run(name, func(t *testing.T) {
			set, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := set.Compile()
			if err != nil {
				t.Fatal(err)
			}
			seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
			runGolden(t, specs, seq, 1, []*scenario.Set{set})
			checkReferenceDigests(t, "scenario/"+name, seq)
			runGolden(t, specs, par, 8, []*scenario.Set{set})
			assertDirsIdentical(t, seq, par)
		})
	}
	if !sawPartitionHeal {
		t.Error("partition-heal.json missing: the fault-determinism acceptance gate did not run")
	}
	if !sawRelayCompare {
		t.Error("relay-compare.json missing: the relay-determinism acceptance gate did not run")
	}
}

// TestGoldenRelaySpecsParallelInvariance pins the relay subsystem's
// registry specs — R1's per-protocol shoot-out and R2's
// mempool-divergence sweep — to the parallel-invariance contract.
// Skipped under -short (each spec runs a multi-campaign sweep); the
// full tier and `make test-relay` run it.
func TestGoldenRelaySpecsParallelInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("relay golden tier runs in make test-relay and the full suite")
	}
	specs, err := experiments.Select([]string{"R1", "R2"})
	if err != nil {
		t.Fatal(err)
	}
	seq, par := filepath.Join(t.TempDir(), "p1"), filepath.Join(t.TempDir(), "p8")
	runGolden(t, specs, seq, 1, nil)
	checkReferenceDigests(t, "relay", seq)
	runGolden(t, specs, par, 8, nil)
	assertDirsIdentical(t, seq, par)
}
