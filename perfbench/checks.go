package main

import (
	"fmt"

	"repro/internal/experiments"
)

// The band checks below are the paper-shape properties that
// internal/experiments/experiments_test.go asserts for seed 42 at small
// scale, re-stated for the scale each workload runs at. A run that
// leaves a band counts as a failed operation: a faster simulator that
// no longer reproduces the paper is not faster.

// bands collects band violations for one campaign.
type bands struct {
	outs     map[string]*experiments.Outcome
	problems []string
}

func newBands(report *experiments.Report) *bands {
	b := &bands{outs: map[string]*experiments.Outcome{}}
	for _, res := range report.Results {
		if res.Err != nil {
			b.failf("%s: %v", res.Spec.ID, res.Err)
			continue
		}
		for _, o := range res.Outcomes {
			b.outs[o.ID] = o
		}
	}
	return b
}

func (b *bands) failf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// metric returns one outcome metric, recording a problem when the
// outcome or metric is missing.
func (b *bands) metric(outcome, name string) float64 {
	o, ok := b.outs[outcome]
	if !ok {
		b.failf("outcome %s missing", outcome)
		return 0
	}
	v, ok := o.Metrics[name]
	if !ok {
		b.failf("%s: metric %s missing", outcome, name)
	}
	return v
}

// within records a problem unless lo <= v <= hi.
func (b *bands) within(label string, v, lo, hi float64) {
	if v < lo || v > hi {
		b.failf("%s = %v outside [%v, %v]", label, v, lo, hi)
	}
}

// propagation is Fig. 1: propagation far below the 13.3 s block
// interval, with a tail above the median.
func (b *bands) propagation(id string) {
	med, p99 := b.metric(id, "median_ms"), b.metric(id, "p99_ms")
	b.within(id+" median_ms", med, 1e-9, 500)
	b.within(id+" p99_ms", p99, med, 2000)
}

// firstObservation is the per-campaign part of Fig. 2: the four
// vantages' first-observation shares partition the blocks (a scenario
// outcome omits a vantage that was never first).
//
// Whether Eastern Asia leads is not checked per campaign: a vantage
// whose clock falls in the modeled NTP tail (offsets of 100-250 ms,
// drawn with probability 0.01 per vantage, against ~60 ms median
// propagation) observes nearly every block first. Over 24 seeds of the
// network spec at medium scale, 3 campaigns broke the test's EA-leads
// bands that way or by chance. geoLead checks the finding over a
// run's campaigns instead.
func (b *bands) firstObservation(id string) {
	o, ok := b.outs[id]
	if !ok {
		b.failf("outcome %s missing", id)
		return
	}
	sum := 0.0
	for _, r := range vantages {
		v := o.Metrics[r+"_share"]
		b.within(id+" "+r+" share", v, 0, 1)
		sum += v
	}
	b.within(id+" share sum", sum, 0.999, 1.001)
}

var vantages = []string{"EA", "NA", "WE", "CE"}

// geoLead is Fig. 2's finding over a run's campaigns (each a
// different seed): Eastern Asia sees at least 30% of blocks first and
// North America trails it. It must hold for at least a third of the
// campaigns. The NTP tail breaks it for about 2% of seeds, so a
// majority rule over three seeds would still fail about once in a
// thousand runs, while a model that lost the EA lead fails every run.
// The test's stricter "by half" and "EA leads WE and CE" bands failed
// for 2 and 1 of the 24 seeds above.
func geoLead(outs []map[string]*experiments.Outcome, id string) []string {
	return holdsForThird(outs, id+": EA share >= 0.30 with NA trailing", func(o map[string]*experiments.Outcome) bool {
		oc := o[id]
		return oc != nil && oc.Metrics["EA_share"] >= 0.30 && oc.Metrics["NA_share"] < oc.Metrics["EA_share"]
	})
}

// poolLead is Fig. 3's finding: Sparkpool's blocks are first observed
// in Eastern Asia, for at least a third of a run's campaigns (per seed
// the share fell to 0.25 once in 24 seeds, a vantage in the NTP tail).
func poolLead(outs []map[string]*experiments.Outcome) []string {
	return holdsForThird(outs, "F3: Sparkpool EA-first share >= 0.5", func(o map[string]*experiments.Outcome) bool {
		f3 := o["F3"]
		return f3 != nil && f3.Metrics["sparkpool_EA_first"] >= 0.5
	})
}

// holdsForThird reports a problem unless ok holds for at least a third
// (rounded up) of the campaigns.
func holdsForThird(outs []map[string]*experiments.Outcome, finding string, ok func(map[string]*experiments.Outcome) bool) []string {
	held := 0
	for _, o := range outs {
		if ok(o) {
			held++
		}
	}
	if need := (len(outs) + 2) / 3; held < need {
		return []string{fmt.Sprintf("%s held for %d of %d seeds, want %d", finding, held, len(outs), need)}
	}
	return nil
}

// checkNetwork is the network spec (Figs. 1-3).
func checkNetwork(b *bands) {
	b.propagation("F1")
	b.firstObservation("F2")
	b.within("F3 sparkpool_EA_first", b.metric("F3", "sparkpool_EA_first"), 0, 1)
	b.within("F3 pools", b.metric("F3", "pools"), 10, 1e9)
}

// checkStress10k is the stress-10k scenario: Figs. 1-2 over its 40
// blocks, too few for the first-observation shares to settle (over 16
// seeds the EA share ranged 0.225-1), so no run-level geography check
// applies.
func checkStress10k(b *bands) {
	b.propagation("stress-10k/propagation")
	b.firstObservation("stress-10k/first_observation")
	b.within("stress-10k/transport messages", b.metric("stress-10k/transport", "messages"), 1, 1e12)
}

// checkCommit is the commit spec (Figs. 4-5).
func checkCommit(b *bands) {
	incl, conf12 := b.metric("F4", "inclusion_median_s"), b.metric("F4", "conf12_median_s")
	b.within("F4 inclusion_median_s", incl, 1e-9, 120)
	b.within("F4 conf12_median_s", conf12, max(120, incl), 320)
	// The test's upper edge is 0.25 at seed 42; over 16 seeds the model
	// gives 0.208-0.245 (the paper measured 0.1154), so a per-seed band
	// needs room above 0.25. The test's other F5 property, out-of-order
	// transactions committing slower at p90, is a small effect: it
	// inverted for 1 of 16 seeds, and for the median of the three seeds
	// of workload seed 31, so it is left to the test.
	b.within("F5 ooo_fraction", b.metric("F5", "ooo_fraction"), 0.04, 0.30)
}

// checkChain is the chain spec (Fig. 6, Table III, one-miner forks,
// Fig. 7) at 20,000 blocks.
func checkChain(b *bands) {
	b.within("F6 empty_fraction", b.metric("F6", "empty_fraction"), 0.005, 0.03)
	// Zhizhu mines about 170 of the 20,000 blocks with empty-block
	// probability 0.26, so its rate has a standard deviation near 0.034;
	// the test's floor of 0.15 is 3.3 of them below the mean and was
	// crossed once in about 1,100 campaigns (0.149). 0.08 still puts
	// Zhizhu at over five times the overall empty fraction.
	b.within("F6 zhizhu_rate", b.metric("F6", "zhizhu_rate"), 0.08, 1)
	b.within("F6 nanopool_empty", b.metric("F6", "nanopool_empty"), 0, 0)

	len1, len2, len3 := b.metric("T3", "len1_total"), b.metric("T3", "len2_total"), b.metric("T3", "len3_total")
	b.within("T3 len1_total", len1, 100, 1e9)
	if len2 >= len1/10 || len3 > len2 {
		b.failf("T3: fork lengths %v/%v/%v out of order", len1, len2, len3)
	}
	b.within("T3 len1_recognized", b.metric("T3", "len1_recognized"), 0.85*len1, len1)
	main := b.metric("T3", "main_blocks")
	off := b.metric("T3", "uncle_blocks") + b.metric("T3", "unrecognized")
	b.within("T3 fork block rate", ratio(off, main+off), 0.03, 0.13)

	pairs := b.metric("S1", "pairs")
	b.within("S1 pairs", pairs, 20, 1e9)
	b.within("S1 triples", b.metric("S1", "triples"), 0, pairs/5)
	b.within("S1 recognized_fraction", b.metric("S1", "recognized_fraction"), 0.7, 1)
	b.within("S1 same_tx_fraction", b.metric("S1", "same_tx_fraction"), 0.4, 0.75)
	b.within("S1 fraction_of_forks", b.metric("S1", "fraction_of_forks"), 0.05, 1)

	eth := b.metric("F7", "ethermine_max_run")
	b.within("F7 ethermine_max_run", eth, 4, 1e9)
	b.within("F7 max_run", b.metric("F7", "max_run"), eth, 1e9)
}
