package txgen

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

type emittedTx struct {
	now    sim.Time
	tx     *types.Transaction
	origin geo.Region
}

func collect(t *testing.T, seed uint64, mutate func(*Config)) (*Generator, []emittedTx) {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRNG(seed)
	var got []emittedTx
	cfg := DefaultConfig()
	cfg.Limit = 5000
	cfg.Submit = func(now sim.Time, tx *types.Transaction, origin geo.Region, _ bool) {
		got = append(got, emittedTx{now, tx, origin})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGenerator(engine, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.Run()
	return g, got
}

func TestGeneratorValidation(t *testing.T) {
	engine := sim.NewEngine()
	rng := sim.NewRNG(1)
	ok := DefaultConfig()
	ok.Submit = func(sim.Time, *types.Transaction, geo.Region, bool) {}
	bad := []func(*Config){
		func(c *Config) { c.Submit = nil },
		func(c *Config) { c.Senders = 0 },
		func(c *Config) { c.MeanInterArrival = 0 },
		func(c *Config) { c.OutOfOrderProb = 1.5 },
		func(c *Config) { c.ZipfExponent = 1.0 },
	}
	for i, mutate := range bad {
		cfg := ok
		mutate(&cfg)
		if _, err := NewGenerator(engine, rng, cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewGenerator(nil, rng, ok); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := NewGenerator(engine, rng, ok); err != nil {
		t.Errorf("valid config failed: %v", err)
	}
}

func TestGeneratorEmitsLimit(t *testing.T) {
	g, got := collect(t, 2, nil)
	// Held releases already in flight may emit a few past the limit.
	if g.Emitted() < 5000 || g.Emitted() > 5100 {
		t.Fatalf("emitted %d", g.Emitted())
	}
	if uint64(len(got)) != g.Emitted() || uint64(len(g.Records())) != g.Emitted() {
		t.Fatalf("collected %d records %d emitted %d", len(got), len(g.Records()), g.Emitted())
	}
}

func TestGeneratorArrivalRate(t *testing.T) {
	_, got := collect(t, 3, nil)
	span := got[len(got)-1].now - got[0].now
	rate := float64(len(got)) / span.Seconds()
	// ~8.3 tx/s (the held-back path adds some spread).
	if rate < 6 || rate > 11 {
		t.Fatalf("rate: %v tx/s", rate)
	}
}

func TestNoncesPerSenderAreCompleteAndUnique(t *testing.T) {
	_, got := collect(t, 4, nil)
	perSender := map[types.Address]map[uint64]bool{}
	maxNonce := map[types.Address]uint64{}
	for _, e := range got {
		m := perSender[e.tx.Sender]
		if m == nil {
			m = map[uint64]bool{}
			perSender[e.tx.Sender] = m
		}
		if m[e.tx.Nonce] {
			t.Fatalf("duplicate nonce %d for %s", e.tx.Nonce, e.tx.Sender)
		}
		m[e.tx.Nonce] = true
		if e.tx.Nonce > maxNonce[e.tx.Sender] {
			maxNonce[e.tx.Sender] = e.tx.Nonce
		}
	}
	// Every nonce from 0..max must exist (no permanent gaps after the
	// engine drained: held txs were all released).
	for sender, m := range perSender {
		for n := uint64(0); n <= maxNonce[sender]; n++ {
			if !m[n] {
				t.Fatalf("sender %s missing nonce %d", sender, n)
			}
		}
	}
}

func TestOutOfOrderFraction(t *testing.T) {
	_, got := collect(t, 5, nil)
	// A tx is observed out of order when some earlier emission from
	// the same sender carried a higher nonce.
	maxSeen := map[types.Address]int64{}
	ooo := 0
	for _, e := range got {
		prev, seen := maxSeen[e.tx.Sender]
		if seen && int64(e.tx.Nonce) < prev {
			ooo++
		}
		if int64(e.tx.Nonce) > prev || !seen {
			maxSeen[e.tx.Sender] = int64(e.tx.Nonce)
		}
	}
	frac := float64(ooo) / float64(len(got))
	// Paper: 11.54%. The generator is calibrated to land nearby.
	if math.Abs(frac-0.115) > 0.03 {
		t.Fatalf("out-of-order fraction: %v", frac)
	}
}

func TestOutOfOrderDisabled(t *testing.T) {
	_, got := collect(t, 6, func(c *Config) { c.OutOfOrderProb = 0 })
	maxSeen := map[types.Address]int64{}
	for _, e := range got {
		prev, seen := maxSeen[e.tx.Sender]
		if seen && int64(e.tx.Nonce) < prev {
			t.Fatal("out-of-order emission with prob 0")
		}
		maxSeen[e.tx.Sender] = int64(e.tx.Nonce)
	}
}

func TestHeldRecordsFlagged(t *testing.T) {
	g, _ := collect(t, 7, nil)
	held := 0
	for _, r := range g.Records() {
		if r.Held {
			held++
		}
	}
	if held == 0 {
		t.Fatal("no held emissions recorded")
	}
}

func TestSenderSkew(t *testing.T) {
	_, got := collect(t, 8, nil)
	counts := map[types.Address]int{}
	for _, e := range got {
		counts[e.tx.Sender]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(got)) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Fatalf("no Zipf skew: max %d vs mean %v", max, mean)
	}
}

func TestOriginsDispersed(t *testing.T) {
	_, got := collect(t, 9, nil)
	regions := map[geo.Region]int{}
	for _, e := range got {
		regions[e.origin]++
	}
	if len(regions) < 4 {
		t.Fatalf("origins concentrated in %d regions", len(regions))
	}
}

func TestGasPricesPositiveAndSpread(t *testing.T) {
	_, got := collect(t, 10, nil)
	distinct := map[uint64]bool{}
	for _, e := range got {
		if e.tx.GasPrice == 0 {
			t.Fatal("zero gas price")
		}
		distinct[e.tx.GasPrice] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("gas prices not spread: %d distinct", len(distinct))
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	engine := sim.NewEngine()
	rng := sim.NewRNG(11)
	cfg := DefaultConfig()
	count := 0
	cfg.Submit = func(sim.Time, *types.Transaction, geo.Region, bool) { count++ }
	g, err := NewGenerator(engine, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunFor(10 * sim.Second)
	g.Stop()
	engine.Run()
	final := g.Emitted()
	if final == 0 {
		t.Fatal("nothing emitted")
	}
	// Held releases may still fire after stop, but no new arrivals.
	if uint64(count) != final {
		t.Fatalf("callback count %d vs emitted %d", count, final)
	}
}

func TestDeterministicReplay(t *testing.T) {
	_, a := collect(t, 12, nil)
	_, b := collect(t, 12, nil)
	if len(a) != len(b) {
		t.Fatal("replay length mismatch")
	}
	for i := range a {
		if a[i].tx.Hash() != b[i].tx.Hash() || a[i].now != b[i].now {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

// TestHeldReleasesOverlapAndSurviveStop pins the release path with two
// releases of one sender in flight at once: the sender holds tx 0,
// releases it when tx 1 arrives, then holds tx 2 and releases it when
// tx 3 arrives — all before the first release lag fires. Stop comes
// right after tx 3, yet both scheduled releases must still emit, in
// time order, each with its own transaction and the Held flag. A
// second round after a restart must reuse the freed release slots.
func TestHeldReleasesOverlapAndSurviveStop(t *testing.T) {
	engine := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Senders = 1
	cfg.OutOfOrderProb = 1
	cfg.MeanInterArrival = sim.Millisecond
	cfg.HoldReleaseMean = sim.Hour
	var g *Generator
	var got []emittedTx
	cfg.Submit = func(now sim.Time, tx *types.Transaction, origin geo.Region, _ bool) {
		got = append(got, emittedTx{now, tx, origin})
		if tx.Nonce%4 == 3 {
			g.Stop()
		}
	}
	var err error
	g, err = NewGenerator(engine, sim.NewRNG(13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		g.Start()
		engine.Run()
		want := 4 * (round + 1)
		if g.Emitted() != want {
			t.Fatalf("round %d: emitted %d, want %d", round, g.Emitted(), want)
		}
		recs := g.Records()
		base := 4 * round
		// Emission order: the two successors at their arrivals, then
		// the two held predecessors after their release lags.
		for i, nonce := range []uint64{1, 3} {
			r := recs[base+uint64(i)]
			if r.Nonce != base+nonce || r.Held {
				t.Fatalf("round %d emission %d: nonce %d held %v, want nonce %d unheld", round, i, r.Nonce, r.Held, base+nonce)
			}
		}
		stoppedAt := recs[base+1].EmitTime
		released := recs[base+2 : base+4]
		if released[0].EmitTime > released[1].EmitTime {
			t.Fatalf("round %d: releases out of time order: %v then %v", round, released[0].EmitTime, released[1].EmitTime)
		}
		seen := map[uint64]bool{}
		for _, r := range released {
			if !r.Held || r.EmitTime <= stoppedAt || (r.Nonce != base && r.Nonce != base+2) {
				t.Fatalf("round %d: release %+v, want held nonce %d or %d after stop at %v", round, r, base, base+2, stoppedAt)
			}
			seen[r.Nonce] = true
		}
		if len(seen) != 2 {
			t.Fatalf("round %d: a held transaction was released twice: %+v", round, released)
		}
		for i, r := range recs {
			if r.Hash != got[i].tx.Hash() || r.EmitTime != got[i].now {
				t.Fatalf("record %d does not match its submission", i)
			}
		}
	}
	if len(g.releases) != 2 {
		t.Fatalf("release slab grew to %d entries, want the 2 freed slots reused", len(g.releases))
	}
}
