package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/p2p/relay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txgen"
)

// stress10k is a pinned copy of examples/scenarios/stress-10k.json, so
// an edit to the shipped example cannot silently change the workload.
//
//go:embed scenarios/stress-10k.json
var stress10k []byte

// campaignWorkload is a workload that runs one spec per campaign the
// way `ethrepro -out` does: experiments.Run, then the artifacts, the
// telemetry record and the sealing manifest into an FS store.
type campaignWorkload struct {
	name  string
	scale experiments.Scale
	// shards is the conductor worker count (0 = single engine), passed
	// the way `ethrepro -shards` passes it.
	//
	// prop-10k-sharded uses one worker. Its artifacts and counters are
	// the same at every worker count, and on a 2-vCPU host that loses a
	// vCPU to steal time, two workers made wall_s spread 42% over five
	// seeds. One worker is also the case ROADMAP item 2 gates on: the
	// conductor on one worker against the single engine (prop-800).
	shards int
	// specs resolves what one campaign runs; sets are the scenario sets
	// to embed as scenario.json.
	specs func() ([]experiments.Spec, []*scenario.Set, error)
	// config rebuilds the spec's campaign configuration for a derived
	// per-run seed. The traced run executes it once more through
	// core.NewCampaign to read the counters experiments.Run does not
	// return (message classes, vantage receptions, transactions); its
	// event and message totals must equal the spec run's, which proves
	// the rebuilt configuration is the spec's.
	config func(seed uint64) core.CampaignConfig
	check  func(*bands)
	// minOps is the fewest campaigns in an untraced run: three, so
	// the run's median is not the mean of two campaigns and the
	// seed-level paper checks have seeds to hold over. A run may
	// exceed its measuring time to reach it (prop-10k-sharded: 3 of
	// about 10 s).
	minOps int
	// runCheck checks the paper's findings that hold over seeds but
	// not for every seed; it applies to untraced runs.
	runCheck func(outs []map[string]*experiments.Outcome) []string
}

var campaignWorkloads = []campaignWorkload{
	{
		name:   "prop-800",
		scale:  experiments.ScaleMedium,
		specs:  registrySpecs("network"),
		minOps: 3,
		config: func(seed uint64) core.CampaignConfig {
			cfg := core.DefaultCampaignConfig(seed)
			cfg.NetworkNodes, cfg.Blocks = 800, 500
			cfg.Measurement = core.PaperMeasurementSpecs(0)
			cfg.Streaming = true
			return cfg
		},
		check: checkNetwork,
		runCheck: func(outs []map[string]*experiments.Outcome) []string {
			return append(geoLead(outs, "F2"), poolLead(outs)...)
		},
	},
	{
		name:   "prop-10k-sharded",
		scale:  experiments.ScaleMedium,
		shards: 1,
		minOps: 3,
		specs: func() ([]experiments.Spec, []*scenario.Set, error) {
			set, err := scenario.Parse(stress10k)
			if err != nil {
				return nil, nil, err
			}
			set.Path = "examples/scenarios/stress-10k.json"
			specs, err := set.Compile()
			return specs, []*scenario.Set{set}, err
		},
		config: func(seed uint64) core.CampaignConfig {
			cfg := core.DefaultCampaignConfig(seed)
			cfg.NetworkNodes, cfg.Blocks, cfg.Degree = 10_000, 40, 8
			cfg.Relay = relay.Config{Mode: relay.SqrtPush}
			cfg.Mining.Pools = mining.PaperPools()
			cfg.Streaming = true
			cfg.Shards = 1
			return cfg
		},
		check: checkStress10k,
	},
	{
		name:   "commit-tx",
		scale:  experiments.ScaleSmall,
		specs:  registrySpecs("commit"),
		minOps: 3,
		config: func(seed uint64) core.CampaignConfig {
			cfg := core.DefaultCampaignConfig(seed)
			cfg.NetworkNodes, cfg.Blocks, cfg.Degree = 100, 150, 6
			cfg.Measurement = core.PaperMeasurementSpecs(30)
			cfg.CaptureTxLinks = true
			cfg.Streaming = true
			wl := txgen.DefaultConfig()
			wl.Senders = 600
			wl.MeanInterArrival = 500 * sim.Millisecond
			cfg.Workload = &wl
			return cfg
		},
		check: checkCommit,
	},
}

func registrySpecs(ids ...string) func() ([]experiments.Spec, []*scenario.Set, error) {
	return func() ([]experiments.Spec, []*scenario.Set, error) {
		specs, err := experiments.Select(ids)
		return specs, nil, err
	}
}

// campaignOp is what one campaign measured.
type campaignOp struct {
	seed     uint64
	wall     float64 // start to verified read-back
	rss      float64 // peak resident MB during the campaign
	sealed   float64 // start to manifest written
	tel      experiments.TelemetryRow
	root     string // Merkle root without telemetry.json
	bytes    int64  // artifact bytes without telemetry.json
	files    int
	mem      memDelta
	outs     map[string]*experiments.Outcome
	problems []string
	// setups are the campaign's set-up times: the spec run's build
	// time and setupRepeats more constructions of its configuration.
	setups []float64
	// kernel is the reference-kernel time bracketing the campaign.
	kernel float64
}

// setupRepeats is how many more times an untraced run constructs each
// campaign's configuration, so setup_s is a median over several
// set-ups per campaign: one prop-800 build takes under 10 ms, where a
// single scheduler hiccup is a large share.
const setupRepeats = 4

// runCampaignOp runs, seals and checks one campaign for a base seed,
// through the lifecycle a server campaign has: submit (resolve the
// specs), queue (until a runner worker starts the run), run (until its
// result), seal (telemetry, artifacts, manifest) and fetch (read back
// and verify). A non-nil tracer records each phase as a span of
// operation op.
func (w *campaignWorkload) runCampaignOp(seed uint64, dir string, tr *tracer, op int) (campaignOp, error) {
	res := campaignOp{seed: seed}
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	// Each campaign starts from a returned heap and its own peak-RSS
	// mark, as it would in a fresh process; neither is timed.
	debug.FreeOSMemory()
	resetPeakRSS()
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	specs, sets, err := w.specs()
	if err != nil {
		return res, err
	}
	if len(specs) != 1 {
		return res, fmt.Errorf("%s: resolved %d specs, want 1", w.name, len(specs))
	}
	submitted := time.Now()
	var resulted time.Time
	report, runErr := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed: seed, Scale: w.scale, Repeats: 1,
		OnResult: func(experiments.Result) { resulted = time.Now() },
	})
	if report == nil || resulted.IsZero() {
		return res, fmt.Errorf("%s: campaign did not run: %v", w.name, runErr)
	}
	tel := experiments.BuildTelemetry(report, obs.Default.Take(experiments.ReportSeeds(report)))
	st := store.NewFS(dir)
	wrote := time.Now()
	err = experiments.WriteArtifacts(st, report)
	if err == nil && len(sets) > 0 {
		err = scenario.WriteArtifact(st, sets)
	}
	if err == nil {
		err = experiments.WriteTelemetry(st, tel)
	}
	written := time.Now()
	if err == nil {
		err = experiments.WriteManifest(st, report)
	}
	sealed := time.Now()
	if err != nil {
		return res, fmt.Errorf("%s: write artifacts: %w", w.name, err)
	}
	verifyErr := store.Verify(st)
	m, readErr := store.ReadManifest(st)
	verified := time.Now()
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.mem = memDiff(before, after)
	}
	if readErr != nil {
		return res, readErr
	}
	if len(tel.Runs) != 1 {
		return res, fmt.Errorf("%s: %d telemetry rows, want 1", w.name, len(tel.Runs))
	}
	res.tel = tel.Runs[0]
	res.rss = peakRSSMB()
	res.wall = verified.Sub(start).Seconds()
	res.sealed = sealed.Sub(start).Seconds()
	res.root, res.bytes, res.files = scienceDigest(m)

	root := tr.add(op, -1, "campaign", start, verified)
	tr.add(op, root, "server.submit", start, submitted)
	tr.lifecycle(op, root, submitted, resulted, res.tel)
	seal := tr.add(op, root, "server.seal", resulted, sealed)
	tr.add(op, seal, "store.write", wrote, written)
	tr.add(op, seal, "store.seal", written, sealed)
	tr.add(op, root, "store.fetch", sealed, verified)

	b := newBands(report)
	if runErr != nil {
		b.failf("%v", runErr)
	}
	if verifyErr != nil {
		b.failf("store.Verify: %v", verifyErr)
	}
	w.check(b)
	res.outs, res.problems = b.outs, b.problems
	return res, os.RemoveAll(dir)
}

// scienceDigest is the Merkle root, byte total and file count of a
// sealed run without telemetry.json, the one artifact that records
// wall-clock time.
func scienceDigest(m *store.Manifest) (string, int64, int) {
	var files []store.File
	var bytes int64
	for _, f := range m.Files {
		if f.Path == experiments.TelemetryFile {
			continue
		}
		files = append(files, f)
		bytes += f.Size
	}
	return store.MerkleRoot(files), bytes, len(files)
}

// run measures a campaign workload. Untraced, it runs one
// campaign per derived seed until the time is up.
// Traced, it runs one seed untraced, traced and untraced again (the
// last two give the tracing overhead, and all three must agree byte for
// byte), then once more through core.NewCampaign for the counters
// experiments.Run does not return.
func (w *campaignWorkload) run(rc runConfig) (*outcome, error) {
	if w.shards > 0 {
		if err := os.Setenv("ETHREPRO_SHARDS", strconv.Itoa(w.shards)); err != nil {
			return nil, err
		}
	}
	obs.Default.EnableTelemetry()
	defer obs.Default.Disable()

	out := newOutcome()
	dir := filepath.Join(rc.dir, "runs", w.name)
	record := func(op campaignOp) {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: wall %.3fs rss %.1fMB sealed %.3fs build %.3fs run %.3fs events %d kernel %.3fs adjusted wall %.3fs\n",
			w.name, op.seed, op.wall, op.rss, op.sealed, op.tel.BuildMS/1e3, op.tel.RunMS/1e3, op.tel.Events, op.kernel, adjust(op.wall, op.kernel))
		out.attempted++
		if len(op.problems) > 0 {
			out.fail(fmt.Sprintf("seed %d", op.seed), op.problems...)
		}
	}
	if !rc.trace {
		var ops []campaignOp
		start := time.Now()
		kernel := calibrate()
		// A campaign starts only if one as long as the last still ends
		// within the measuring time.
		var last float64
		for i := 0; i < w.minOps || time.Since(start).Seconds()+last <= rc.seconds; i++ {
			opStart := time.Now()
			op, err := w.runCampaignOp(deriveSeed(rc.seed, uint64(i)), dir, nil, i)
			if err != nil {
				return nil, err
			}
			if err := w.setupTimes(&op); err != nil {
				return nil, err
			}
			next := calibrate()
			op.kernel = hostBracket(kernel, next)
			kernel = next
			last = time.Since(opStart).Seconds()
			record(op)
			ops = append(ops, op)
		}
		if w.runCheck != nil {
			var outs []map[string]*experiments.Outcome
			for _, op := range ops {
				outs = append(outs, op.outs)
			}
			out.attempted++
			if problems := w.runCheck(outs); len(problems) > 0 {
				out.fail("median over the run's seeds", problems...)
			}
		}
		w.endToEnd(out, ops)
		return out, nil
	}

	// The first campaign of a process also pays for growing the heap,
	// so the overhead is measured against an untraced campaign that
	// runs after the traced one.
	seed := deriveSeed(rc.seed, 0)
	first, err := w.runCampaignOp(seed, dir, nil, 0)
	if err != nil {
		return nil, err
	}
	record(first)
	out.tr = newTracer()
	kernels := []float64{calibrate()}
	traced, err := w.runCampaignOp(seed, dir, out.tr, 1)
	if err != nil {
		return nil, err
	}
	kernels = append(kernels, calibrate())
	record(traced)
	plain, err := w.runCampaignOp(seed, dir, nil, 2)
	if err != nil {
		return nil, err
	}
	kernels = append(kernels, calibrate())
	record(plain)
	out.m["host.kernel_s"] = median(kernels)
	for _, op := range []campaignOp{first, plain} {
		out.drift("traced vs untraced run", []driftCheck{
			{"merkle root", op.root, traced.root},
			{"sim.events", op.tel.Events, traced.tel.Events},
			{"p2p.messages", op.tel.Messages, traced.tel.Messages},
			{"sim.conductor.stalled", op.tel.ShardStalled, traced.tel.ShardStalled},
			{"store.bytes", op.bytes, traced.bytes},
		})
	}
	if err := w.counters(out, traced); err != nil {
		return nil, err
	}
	w.layers(out, plain, traced)
	return out, nil
}

// setupTimes times setupRepeats constructions of the campaign's
// configuration, the work telemetry's build time covers, and records
// them with the spec run's own build time. Each starts from a collected
// heap, as the spec run's does.
func (w *campaignWorkload) setupTimes(op *campaignOp) error {
	op.setups = append(op.setups, op.tel.BuildMS/1e3)
	cfg := w.config(op.tel.Seed)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := core.NewCampaign(cfg); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		op.setups = append(op.setups, time.Since(start).Seconds())
	}
	return nil
}

// endToEnd fills the user-facing metrics from untraced campaigns, in
// reference seconds (host.go).
func (w *campaignWorkload) endToEnd(out *outcome, ops []campaignOp) {
	var walls, sealed, setups, rss, raw, kernels []float64
	var runS float64
	for _, op := range ops {
		raw = append(raw, op.wall)
		kernels = append(kernels, op.kernel)
		walls = append(walls, adjust(op.wall, op.kernel))
		rss = append(rss, op.rss)
		sealed = append(sealed, adjust(op.sealed, op.kernel))
		for _, s := range op.setups {
			setups = append(setups, adjust(s, op.kernel))
		}
		runS += adjust(op.tel.RunMS/1e3, op.kernel)
	}
	out.m["wall_s"] = median(walls)
	out.m["setup_s"] = median(setups)
	out.m["sim_blocks_per_s"] = ratio(float64(len(ops))*float64(w.config(0).Blocks), runS)
	out.m["sealed_p50_s"] = percentile(sealed, 50)
	out.m["peak_rss_mb"] = median(rss)
	out.m["host.raw_wall_s"] = median(raw)
	out.m["host.kernel_s"] = median(kernels)
}

// layers fills the per-layer metrics of the traced campaign.
func (w *campaignWorkload) layers(out *outcome, plain, traced campaignOp) {
	t := traced.tel
	out.spanMetrics([]float64{plain.wall})
	out.m["host.raw_wall_s"] = plain.wall
	out.m["sim.s_per_s"] = ratio(float64(t.SimMS)/1e3, t.RunMS/1e3)
	out.m["sim.events"] = float64(t.Events)
	out.m["sim.events_per_s"] = t.EventsPerSec
	out.m["sim.peak_queue"] = float64(t.PeakQueue)
	out.conductor(t)
	out.m["p2p.messages"] = float64(t.Messages)
	out.m["p2p.mbytes"] = float64(t.Bytes) / 1e6
	out.m["mining.blocks_per_s"] = ratio(out.m["mining.blocks"], t.RunMS/1e3)
	out.m["store.bytes"] = float64(traced.bytes)
	out.m["store.files"] = float64(traced.files)
	out.m["server.rejected"] = 0
	out.m["runtime.bytes_per_node"] = t.BytesPerNode
	out.memory(traced.mem, 1)
	out.m["sealed.p75_s"] = traced.sealed
	out.m["sealed.samples"] = 1
	out.m["sealed.tail_pct"] = 0
}

// counters runs the traced campaign's configuration through
// core.NewCampaign once more and reads the counters only its result
// carries.
func (w *campaignWorkload) counters(out *outcome, traced campaignOp) error {
	cfg := w.config(traced.tel.Seed)
	c, err := core.NewCampaign(cfg)
	if err != nil {
		return err
	}
	res, err := c.Run()
	if err != nil {
		return err
	}
	rerun := obs.Default.Take([]uint64{cfg.Seed})[cfg.Seed]
	out.drift("counter pass vs spec run", []driftCheck{
		{"sim.events", traced.tel.Events, rerun.Events},
		{"p2p.messages", traced.tel.Messages, res.MessagesSent},
	})

	bw := res.Bandwidth
	classes := map[string]uint64{}
	for _, c := range bw.Classes {
		classes[c.Name] = c.Messages
	}
	for _, name := range msgClasses {
		out.m["p2p.class."+name+".messages"] = float64(classes[name])
	}
	out.m["p2p.msgs_per_block"] = ratio(float64(bw.TotalMessages), float64(bw.Blocks))
	var receptions uint64
	for _, v := range bw.Vantages {
		receptions += v.MessagesIn
	}
	out.m["measure.receptions"] = float64(receptions)
	var copies, blocks int
	for _, n := range res.Nodes {
		for _, o := range n.BlockObservations() {
			copies += o.Blocks + o.Announces
			blocks++
		}
	}
	out.m["relay.vantage_receptions_per_block"] = ratio(float64(copies), float64(blocks))
	out.m["mining.blocks"] = float64(res.Tree.Len() - 1)
	out.m["txgen.txs"] = float64(len(res.TxRecords))
	out.m["txgen.included_frac"] = 0
	if len(res.TxRecords) > 0 {
		commit, err := analysis.CommitTimes(res.Index, res.View)
		if err != nil {
			return err
		}
		out.m["txgen.included_frac"] = ratio(float64(commit.Txs), float64(len(res.TxRecords)))
	}
	return nil
}
