package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The shard-axis golden gate: run directories must be byte-identical
// across the sharded conductor's worker counts (shards ∈ {1, 2, 6})
// crossed with the runner's campaign-level parallelism (∈ {1, 8}).
// Sharding is enabled through the ETHREPRO_SHARDS environment knob the
// CampaignConfig falls back to, so the exact artifact surface of
// `ETHREPRO_SHARDS=n ethrepro ...` is what is pinned here. Note the
// contract deliberately does NOT span shards=0: the sharded conductor
// schedules through lane-forked RNG streams, so its artifacts are a
// separate (equally deterministic) family from the single-engine ones.
//
// Grid runs multiply campaign count six-fold, so the in-package tiers
// (both -short and full) check the grid's corner cases on the short
// spec/scenario core, keeping `go test ./...` inside its timeout. The
// exhaustive acceptance sweep — every builtin spec and every shipped
// scenario across the complete grid — is opt-in via SHARDGOLDEN=full,
// which `make test-shard` sets with a timeout sized for it.

// shardGoldenFull reports whether the exhaustive acceptance sweep was
// requested (SHARDGOLDEN=full, the make test-shard full lane).
func shardGoldenFull() bool { return os.Getenv("SHARDGOLDEN") == "full" }

// shardCombo is one point on the shards × parallel grid.
type shardCombo struct {
	shards   int
	parallel int
}

// goldenShardGrid returns the combos to compare against the reference
// (shards=1, parallel=1). The default corners still cross every
// mechanism: multi-lane merge under campaign parallelism (6,8) and
// the two-lane case (2,1); SHARDGOLDEN=full runs the whole grid from
// the acceptance criteria.
func goldenShardGrid() []shardCombo {
	if shardGoldenFull() {
		return []shardCombo{{1, 8}, {2, 1}, {2, 8}, {6, 1}, {6, 8}}
	}
	return []shardCombo{{2, 1}, {6, 8}}
}

// runGoldenSharded is runGolden with the conductor enabled at the
// given worker count for every campaign in the run.
func runGoldenSharded(t *testing.T, specs []experiments.Spec, dir string, shards, parallel int, sets []*scenario.Set) {
	t.Helper()
	t.Setenv("ETHREPRO_SHARDS", fmt.Sprint(shards))
	runGolden(t, specs, dir, parallel, sets)
}

// TestGoldenShardBuiltinSpecsInvariance pins the built-in registry to
// the shard grid — by default the short-tier core (the paper specs
// plus the dependability specs, which exercise the fault injector's
// region-keyed lanes), under SHARDGOLDEN=full everything but the
// R1/R2 sweeps, matching the parallel harness.
func TestGoldenShardBuiltinSpecsInvariance(t *testing.T) {
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if !shardGoldenFull() && !goldenShortSpecs[s.ID] {
			continue
		}
		if s.ID == "R1" || s.ID == "R2" {
			// Like the parallel harness, the relay sweeps stay out of
			// this gate: relay-compare.json below covers sharded relay
			// determinism at a fraction of their multi-campaign cost.
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	ref := filepath.Join(t.TempDir(), "s1p1")
	runGoldenSharded(t, specs, ref, 1, 1, nil)
	checkReferenceDigests(t, "shard-builtin-"+goldenTier(shardGoldenFull()), ref)
	for _, c := range goldenShardGrid() {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
		runGoldenSharded(t, specs, dir, c.shards, c.parallel, nil)
		assertDirsIdentical(t, ref, dir)
	}
}

// TestGoldenShardScenarioArtifactsInvariance runs the shipped
// acceptance scenarios (baseline, partition-heal for fault
// determinism, relay-compare for protocol determinism) across the
// shard grid, embedded scenario.json and digest manifest included.
func TestGoldenShardScenarioArtifactsInvariance(t *testing.T) {
	pattern := filepath.Join("..", "..", "examples", "scenarios", "*.json")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	ran := 0
	for _, path := range paths {
		name := filepath.Base(path)
		// Default: the three acceptance scenarios. SHARDGOLDEN=full:
		// every shipped file at small scale (the 100k file runs its
		// full size in the STRESS100K gate below).
		if !shardGoldenFull() && !goldenShortScenarios[name] {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			set, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := set.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(t.TempDir(), "s1p1")
			runGoldenSharded(t, specs, ref, 1, 1, []*scenario.Set{set})
			checkReferenceDigests(t, "shard-scenario/"+name, ref)
			for _, c := range goldenShardGrid() {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("s%dp%d", c.shards, c.parallel))
				runGoldenSharded(t, specs, dir, c.shards, c.parallel, []*scenario.Set{set})
				assertDirsIdentical(t, ref, dir)
			}
		})
	}
	want := len(goldenShortScenarios)
	if shardGoldenFull() {
		want = len(paths)
	}
	if ran != want {
		t.Errorf("ran %d scenario files, want %d: an acceptance gate is missing", ran, want)
	}
}

// TestGoldenShardUniformLookaheadInvariance pins the tentpole's
// soundness claim from the artifact side: the topology-aware per-pair
// lookahead matrix is a pure scheduling optimization, so a sharded run
// with the latency-model bounds must produce byte-identical artifacts
// to the same run forced back to the uniform 1 ms matrix
// (ETHREPRO_UNIFORM_LOOKAHEAD=1). A difference would mean a deadline
// overshot a real arrival — the back-dating bug the merge asserts
// against — or that window placement leaked into the simulation.
func TestGoldenShardUniformLookaheadInvariance(t *testing.T) {
	var specs []experiments.Spec
	for _, s := range experiments.Specs() {
		if goldenShortSpecs[s.ID] {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		t.Fatal("no specs selected")
	}
	bounds := filepath.Join(t.TempDir(), "bounds")
	runGoldenSharded(t, specs, bounds, 6, 1, nil)
	uniform := filepath.Join(t.TempDir(), "uniform")
	t.Setenv("ETHREPRO_UNIFORM_LOOKAHEAD", "1")
	runGoldenSharded(t, specs, uniform, 6, 1, nil)
	assertDirsIdentical(t, bounds, uniform)
}

// TestGoldenShardStress100kInvariance is the sharded arm of `make
// test-stress`: the 100,000-node scenario at full size, shards=6
// against the shards=1 reference, both at -parallel 8. Opt-in via
// STRESS100K like the unsharded stress tier — two more 100k campaigns
// cost minutes, and this is the scale tier sharding was built for.
func TestGoldenShardStress100kInvariance(t *testing.T) {
	if os.Getenv("STRESS100K") == "" {
		t.Skip("set STRESS100K=1 (make test-stress) to run the sharded 100k invariance tier")
	}
	set, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "stress-100k.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, six := filepath.Join(t.TempDir(), "s1"), filepath.Join(t.TempDir(), "s6")
	t.Setenv("ETHREPRO_SHARDS", "1")
	runGoldenAt(t, specs, ref, 8, []*scenario.Set{set}, experiments.ScaleMedium, 1)
	t.Setenv("ETHREPRO_SHARDS", "6")
	runGoldenAt(t, specs, six, 8, []*scenario.Set{set}, experiments.ScaleMedium, 1)
	assertDirsIdentical(t, ref, six)
}
