// Package txgen generates the transaction workload: Poisson arrivals
// from a Zipf-skewed population of geo-dispersed senders, each with a
// monotonically increasing nonce, and a controlled fraction of
// out-of-order emissions.
//
// The out-of-order mechanism mirrors what the paper observes
// (§III-C2): a sender's transaction with nonce n is occasionally
// observed after its successor n+1, forcing miners to delay the
// successor's inclusion. The generator implements this as a held-back
// emission: with probability OutOfOrderProb a transaction is retained
// until the sender's next transaction has been emitted, then released
// after a short lag.
package txgen

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// Submit delivers a generated transaction to the system under test at
// a virtual time, from an origin region. private marks a transaction
// submitted directly to mining infrastructure without entering public
// gossip (PrivateProb) — the receiver-side mempool-divergence driver
// for compact-relay experiments.
type Submit func(now sim.Time, tx *types.Transaction, origin geo.Region, private bool)

// Config parameterizes the workload.
type Config struct {
	// Senders is the size of the sending population.
	Senders int
	// MeanInterArrival is the global mean time between transaction
	// submissions (all senders combined).
	MeanInterArrival sim.Time
	// ZipfExponent skews sender activity (>1; higher = more skew).
	ZipfExponent float64
	// OutOfOrderProb is the per-transaction probability of the
	// held-back emission that produces an out-of-order observation.
	OutOfOrderProb float64
	// HoldReleaseMean is the mean lag between emitting the successor
	// and releasing the held transaction.
	HoldReleaseMean sim.Time
	// HoldTimeout releases a held transaction even when the sender
	// stays quiet, bounding worst-case gaps.
	HoldTimeout sim.Time
	// MeanGasPrice sets the exponential gas-price distribution's mean
	// (plus 1 floor), in wei.
	MeanGasPrice uint64
	// PrivateProb is the per-transaction probability of a private
	// submission: the transaction reaches miners (the global pool)
	// but never enters overlay gossip, so block bodies diverge from
	// every node's mempool by roughly this fraction. Zero (the
	// default) draws nothing from the RNG, keeping legacy workloads
	// byte-identical.
	PrivateProb float64
	// Limit stops the generator after this many transactions
	// (0 = unlimited; the caller must stop the engine).
	Limit uint64
	// RegionShare distributes senders across regions; nil uses
	// geo.DefaultNodeShare (transactions are geographically dispersed,
	// unlike blocks — §III-A1).
	RegionShare map[geo.Region]float64
	// Submit receives every emitted transaction. Required.
	Submit Submit
}

// DefaultConfig returns a workload shaped like mainnet April 2019:
// ~100 tx per 13.3 s block (the paper captured 21.9M txs over one
// month ≈ 8.3 tx/s).
func DefaultConfig() Config {
	return Config{
		Senders:          2000,
		MeanInterArrival: 120 * sim.Millisecond, // ~8.3 tx/s
		ZipfExponent:     1.2,
		// Calibrated above the paper's 11.54% observed rate because a
		// hold only yields an out-of-order observation when the
		// sender's next transaction overtakes it before the timeout;
		// quiet-sender timeouts release in order.
		OutOfOrderProb:  0.16,
		HoldReleaseMean: 8 * sim.Second,
		HoldTimeout:     90 * sim.Second,
		MeanGasPrice:    10_000_000_000, // 10 Gwei
	}
}

// TxRecord is the generator's ground truth for one transaction.
type TxRecord struct {
	Hash     types.Hash
	Sender   types.Address
	Nonce    uint64
	EmitTime sim.Time
	Origin   geo.Region
	// Held reports whether this transaction was emitted via the
	// held-back (out-of-order) path.
	Held bool
	// Private reports a miner-direct submission that skipped gossip.
	Private bool
}

type senderState struct {
	address   types.Address
	region    geo.Region
	nextNonce uint64
	held      *types.Transaction
	heldSince sim.Time
	// holdTimer is the sender's safety-valve timeout, allocated on the
	// sender's first hold and rescheduled/cancelled thereafter — early
	// releases cancel it instead of leaving a tombstone event behind.
	holdTimer *sim.Timer
}

// heldRelease is one scheduled release of a held transaction: the
// event emits tx for sender s.
type heldRelease struct {
	s  *senderState
	tx *types.Transaction
}

// opRelease is the generator's one event opcode: emit the held
// transaction at releases[b].
const opRelease uint64 = 0

// Generator drives the workload on a simulation engine.
type Generator struct {
	engine  *sim.Engine
	rng     *sim.RNG
	cfg     Config
	zipf    *sim.Zipf
	senders []*senderState
	// arrival is the Poisson arrival loop's pooled timer handle.
	arrival *sim.Timer
	emitted uint64
	stopped bool
	records []TxRecord
	// releases is the slab of scheduled held-transaction releases,
	// indexed by the release event's second argument; freeReleases
	// lists the slab entries that are free for reuse.
	releases     []heldRelease
	freeReleases []uint64
}

// Configuration errors.
var (
	ErrNoSubmit  = errors.New("txgen: nil submit callback")
	ErrNoSenders = errors.New("txgen: need at least one sender")
)

// NewGenerator validates the configuration and prepares the sender
// population.
func NewGenerator(engine *sim.Engine, rng *sim.RNG, cfg Config) (*Generator, error) {
	if engine == nil || rng == nil {
		return nil, errors.New("txgen: nil engine or rng")
	}
	if cfg.Submit == nil {
		return nil, ErrNoSubmit
	}
	if cfg.Senders < 1 {
		return nil, ErrNoSenders
	}
	if cfg.MeanInterArrival <= 0 {
		return nil, fmt.Errorf("txgen: inter-arrival %v <= 0", cfg.MeanInterArrival)
	}
	if cfg.OutOfOrderProb < 0 || cfg.OutOfOrderProb > 1 {
		return nil, fmt.Errorf("txgen: out-of-order prob %v outside [0,1]", cfg.OutOfOrderProb)
	}
	if cfg.PrivateProb < 0 || cfg.PrivateProb > 1 {
		return nil, fmt.Errorf("txgen: private prob %v outside [0,1]", cfg.PrivateProb)
	}
	if cfg.ZipfExponent <= 1 {
		return nil, fmt.Errorf("txgen: zipf exponent %v must be > 1", cfg.ZipfExponent)
	}
	share := cfg.RegionShare
	if share == nil {
		share = geo.DefaultNodeShare
	}
	placement, err := geo.PlaceNodes(cfg.Senders, share)
	if err != nil {
		return nil, fmt.Errorf("txgen: place senders: %w", err)
	}
	g := &Generator{
		engine: engine,
		rng:    rng,
		cfg:    cfg,
		zipf:   sim.NewZipf(rng, cfg.Senders, cfg.ZipfExponent),
	}
	g.arrival = engine.NewTimer(g.arrivalTick)
	for i := 0; i < cfg.Senders; i++ {
		g.senders = append(g.senders, &senderState{
			address: types.AddressFromString(fmt.Sprintf("sender-%d", i)),
			region:  placement[i],
		})
	}
	return g, nil
}

// Start schedules the first arrival.
func (g *Generator) Start() {
	g.stopped = false
	g.scheduleNext()
}

// Stop halts generation; held transactions already scheduled for
// release still emit. The pending arrival is cancelled outright.
func (g *Generator) Stop() {
	g.stopped = true
	g.arrival.Stop()
}

// Emitted returns the number of transactions handed to Submit so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Records returns the ground-truth records of all emitted
// transactions, in emission order.
func (g *Generator) Records() []TxRecord {
	out := make([]TxRecord, len(g.records))
	copy(out, g.records)
	return out
}

func (g *Generator) scheduleNext() {
	if g.stopped || (g.cfg.Limit > 0 && g.emitted >= g.cfg.Limit) {
		return
	}
	g.arrival.Reset(g.rng.ExpTime(g.cfg.MeanInterArrival))
}

// arrivalTick is the arrival timer's callback: process one arrival and
// schedule the next.
func (g *Generator) arrivalTick(now sim.Time) {
	if g.stopped || (g.cfg.Limit > 0 && g.emitted >= g.cfg.Limit) {
		return
	}
	g.doArrival(now)
	g.scheduleNext()
}

// doArrival processes one workload arrival: build the sender's next
// transaction and emit, hold, or release as the out-of-order model
// dictates.
func (g *Generator) doArrival(now sim.Time) {
	s := g.senders[g.zipf.Sample()]
	tx := &types.Transaction{
		Sender:   s.address,
		To:       types.AddressFromString(fmt.Sprintf("recipient-%d", g.rng.IntN(10_000))),
		Nonce:    s.nextNonce,
		Value:    uint64(1 + g.rng.IntN(1_000_000)),
		GasPrice: 1 + uint64(g.rng.Exponential(float64(g.cfg.MeanGasPrice))),
		Gas:      types.TxGas,
	}
	s.nextNonce++

	if s.held != nil {
		// The successor goes out first; the held predecessor follows
		// shortly — this is the out-of-order pair.
		g.emit(now, s, tx, false)
		g.releaseHeld(now, s)
		return
	}
	if g.cfg.OutOfOrderProb > 0 && g.rng.Bernoulli(g.cfg.OutOfOrderProb) {
		s.held = tx
		s.heldSince = now
		// Safety valve: a quiet sender must not stall its nonce
		// stream forever. One timer per sender, rescheduled per hold.
		if g.cfg.HoldTimeout > 0 {
			if s.holdTimer == nil {
				sender := s
				s.holdTimer = g.engine.NewTimer(func(later sim.Time) {
					g.releaseHeld(later, sender)
				})
			}
			s.holdTimer.Reset(g.cfg.HoldTimeout)
		}
		return
	}
	g.emit(now, s, tx, false)
}

func (g *Generator) releaseHeld(now sim.Time, s *senderState) {
	held := s.held
	if held == nil {
		return
	}
	s.held = nil
	if s.holdTimer != nil {
		// Early release (successor arrived first): the safety valve is
		// moot — cancel it instead of letting a dead event fire.
		s.holdTimer.Stop()
	}
	lag := g.rng.ExpTime(g.cfg.HoldReleaseMean)
	var i uint64
	if n := len(g.freeReleases); n > 0 {
		i = g.freeReleases[n-1]
		g.freeReleases = g.freeReleases[:n-1]
	} else {
		i = uint64(len(g.releases))
		g.releases = append(g.releases, heldRelease{})
	}
	g.releases[i] = heldRelease{s: s, tx: held}
	g.engine.ScheduleCall(lag, g, opRelease, i)
}

// HandleEvent implements sim.Handler: it emits the held transaction of
// the release at slab index b. Releases run even after Stop — a held
// transaction already scheduled still goes out.
func (g *Generator) HandleEvent(now sim.Time, _, b uint64) {
	r := g.releases[b]
	g.releases[b] = heldRelease{}
	g.freeReleases = append(g.freeReleases, b)
	g.emit(now, r.s, r.tx, true)
}

// EventName implements sim.EventNamer for traces.
func (g *Generator) EventName(uint64) string { return "txgen.release" }

func (g *Generator) emit(now sim.Time, s *senderState, tx *types.Transaction, wasHeld bool) {
	g.emitted++
	// The private draw is gated so a zero probability consumes no RNG
	// — legacy workloads stay byte-identical.
	private := g.cfg.PrivateProb > 0 && g.rng.Bernoulli(g.cfg.PrivateProb)
	g.records = append(g.records, TxRecord{
		Hash:     tx.Hash(),
		Sender:   tx.Sender,
		Nonce:    tx.Nonce,
		EmitTime: now,
		Origin:   s.region,
		Held:     wasHeld,
		Private:  private,
	})
	g.cfg.Submit(now, tx, s.region, private)
}
