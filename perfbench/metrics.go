package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_blocks_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"sealed_p50_s", "s"},
}

// msgClasses are the p2p wire-message classes, in wire-kind order (the
// names p2p.MsgKind.String returns).
var msgClasses = []string{
	"NewBlock", "NewBlockHashes", "GetBlock", "Transactions",
	"CompactBlock", "GetCompact", "GetBlockTxns", "BlockTxns",
}

// perLayer are the metrics of single layers, printed by every traced
// run (--trace 1). Times ending in _s are the median per-campaign self
// time of the span of that name, except experiments.run_s, which is
// the whole runner span.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.build_s", "s"},
		{"sim.s_per_s", "s/s"},
		{"sim.events", "count"},
		{"sim.run_s", "s"},
		{"sim.events_per_s", "1/s"},
		{"sim.peak_queue", "count"},
		{"sim.conductor.windows", "count"},
		{"sim.conductor.lane_windows", "count"},
		{"sim.conductor.stalled", "count"},
		{"sim.conductor.stall_ratio", "ratio"},
		{"sim.conductor.merged", "count"},
		{"p2p.messages", "count"},
		{"p2p.mbytes", "MB"},
		{"p2p.msgs_per_block", "count"},
	}
	for _, c := range msgClasses {
		defs = append(defs, metricDef{"p2p.class." + c + ".messages", "count"})
	}
	return append(defs, []metricDef{
		{"relay.vantage_receptions_per_block", "ratio"},
		{"measure.receptions", "count"},
		{"analysis.post_run_s", "s"},
		{"mining.blocks", "count"},
		{"mining.blocks_per_s", "1/s"},
		{"txgen.txs", "count"},
		{"txgen.included_frac", "ratio"},
		{"store.write_s", "s"},
		{"store.seal_s", "s"},
		{"store.bytes", "bytes"},
		{"store.files", "count"},
		{"store.fetch_s", "s"},
		{"server.submit_s", "s"},
		{"server.queue_wait_s", "s"},
		{"experiments.run_s", "s"},
		{"server.seal_s", "s"},
		{"server.rejected", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.bytes_per_node", "bytes"},
		{"sealed.p75_s", "s"},
		{"sealed.samples", "count"},
		{"sealed.tail_pct", "pct"},
		{"trace.wall_s", "s"},
		{"trace.untraced_wall_s", "s"},
		{"trace.overhead_s", "s"},
		{"trace.self_sum_s", "s"},
		{"determinism.drift", "count"},
		{"host.kernel_s", "s"},
		{"host.raw_wall_s", "s"},
	}...)
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateDefs checks names and units against the result format and
// that no name repeats.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.name) {
			return fmt.Errorf("metric name %q: want 1-64 letters, digits, _ . - starting with a letter or digit", d.name)
		}
		if !unitName.MatchString(d.unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// render selects defs from the measured values. A def the run did not
// measure is an error, so a workload cannot silently drop a metric.
func render(defs []metricDef, got map[string]float64, attempted, failed int) (result, error) {
	r := result{Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return r, fmt.Errorf("workload did not measure %v (or measured NaN/Inf)", missing)
	}
	return r, nil
}

func (r result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // only NaN/Inf fail to marshal, and render rejects them
	}
	return string(data)
}
