// Package sim provides the deterministic discrete-event engine the
// whole reproduction runs on: a virtual clock, a binary-heap event
// queue with stable FIFO ordering among simultaneous events, and
// seeded random-number streams.
//
// The engine substitutes for wall-clock time and the real Internet:
// every network hop, mining interval and transaction arrival is an
// event scheduled at a virtual timestamp. A given seed reproduces the
// exact same run, which makes every experiment in EXPERIMENTS.md
// replayable.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Time is a virtual timestamp measured in milliseconds since the start
// of the simulation. Millisecond resolution matches the measurement
// granularity of the paper's instrumented Geth logs.
type Time int64

// Millisecond helpers.
const (
	Millisecond Time = 1
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Duration converts the virtual time into a time.Duration.
func (t Time) Duration() time.Duration {
	return time.Duration(int64(t)) * time.Millisecond
}

// Seconds returns the timestamp in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / 1000 }

// String renders the timestamp as a duration offset.
func (t Time) String() string { return t.Duration().String() }

// FromDuration converts a wall duration into virtual Time, rounding to
// milliseconds.
func FromDuration(d time.Duration) Time {
	return Time(d.Milliseconds())
}

// Event is a Timer's callback: it runs once per occurrence, at the
// occurrence's virtual time.
type Event func(now Time)

// ErrStopped is returned by Run variants when the engine was halted
// before the condition was met.
var ErrStopped = errors.New("sim: engine stopped")

// Handler is the engine's one event representation: every queued
// event is a (handler, a, b) triple, scheduled via ScheduleCall or a
// Timer. A subsystem implements Handler once instead of allocating a
// closure per event; the two uint64 arguments typically carry an
// opcode and an index into a caller-owned slab.
type Handler interface {
	HandleEvent(now Time, a, b uint64)
}

// EventNamer is optionally implemented by Handlers to label their
// opcodes in traces ("deliver", "announce", ...). Tracing falls back
// to the handler's type name and numeric opcode otherwise.
type EventNamer interface {
	EventName(op uint64) string
}

// EventClass partitions dispatched events by scheduling path, the
// coarse axis every trace is bucketed on.
type EventClass uint8

// Event classes.
const (
	// EventCall is a Handler invocation scheduled via ScheduleCall.
	EventCall EventClass = iota
	// EventTimer is a Timer occurrence.
	EventTimer
)

// String names the class.
func (c EventClass) String() string {
	switch c {
	case EventCall:
		return "call"
	case EventTimer:
		return "timer"
	default:
		return "unknown"
	}
}

// Probe observes event dispatch. A probe is strictly passive: it runs
// after the event's callback, consumes no simulation RNG, and cannot
// reorder or reschedule anything — attaching one never changes a
// seeded run's artifacts. h and op are the Handler and its first
// argument for EventCall dispatches; EventTimer dispatches pass a nil
// h. wall is the callback's wall-clock cost. Probes are invoked from
// the engine's single execution goroutine.
type Probe interface {
	Dispatch(now Time, class EventClass, h Handler, op uint64, wall time.Duration)
}

// EngineStats is the always-on engine snapshot: a handful of counters
// the engine maintains regardless of tracing, cheap enough to read
// mid-run. Every field is a pure function of the simulation (no wall
// time), so stats are byte-identical across repeated seeded runs.
type EngineStats struct {
	// Now is the current virtual time.
	Now Time
	// Processed counts executed events.
	Processed uint64
	// Pending counts scheduled, not yet executed events.
	Pending int
	// MaxPending is the queue-depth high-water mark.
	MaxPending int
	// Slots is the allocated slot-arena capacity (live + free), the
	// engine's memory footprint in event slots.
	Slots int
	// Scheduled counts every enqueue (ScheduleCall and Timer resets
	// alike): the global sequence counter.
	Scheduled uint64
}

// slot is one event's inline storage. Slots live in a free-listed
// arena; the heap orders slot indices, so scheduling an event
// allocates nothing once the arena has warmed up.
type slot struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among equal timestamps
	h    Handler
	a, b uint64
	pos  int32 // current heap position, -1 when not queued
}

// Engine is a single-threaded discrete-event executor. It is not safe
// for concurrent use; the simulation model is sequential by design so
// runs are deterministic.
//
// The queue is an index-addressed 4-ary heap over inline slots with a
// free list. Pop order is the strict total order (at, seq) — seq is a
// global schedule counter, so simultaneous events run in FIFO order
// regardless of heap shape. The 4-ary layout halves tree depth versus
// a binary heap and keeps parent/child slots on fewer cache lines.
type Engine struct {
	now        Time
	lastAt     Time
	slots      []slot
	free       []int32
	heap       []int32
	seq        uint64
	stopped    bool
	ran        uint64
	maxPending int
	probe      Probe
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// LastEventAt returns the timestamp of the most recently executed
// event (zero before any event runs). Unlike Now, it never reflects a
// RunUntil deadline the clock coasted to without executing anything —
// making it the right "how far did the simulation actually get"
// frontier for lanes whose granted deadlines overshoot their last
// event by a lookahead-bound-dependent margin.
func (e *Engine) LastEventAt() Time { return e.lastAt }

// Processed returns the number of events executed so far. Cancelled
// timers do not count: unlike the pre-Timer engine, dead events are
// removed from the queue instead of firing as no-ops.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int { return len(e.heap) }

// Stats snapshots the always-on engine counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:        e.now,
		Processed:  e.ran,
		Pending:    len(e.heap),
		MaxPending: e.maxPending,
		Slots:      len(e.slots),
		Scheduled:  e.seq,
	}
}

// SetProbe attaches (or with nil, detaches) a dispatch probe. The
// disabled path costs one nil check per event; see docs/OBSERVABILITY.md
// for the determinism contract.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// acquire returns a free slot index, growing the arena when the free
// list is empty.
func (e *Engine) acquire() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, slot{pos: -1})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list, dropping the handler
// reference so it does not outlive its event.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.h = nil
	s.a, s.b = 0, 0
	s.pos = -1
	e.free = append(e.free, i)
}

// less orders slot indices by (at, seq). seq values are unique, so
// this is a strict total order: heap pops are FIFO-stable by
// construction, not by tie-breaking luck.
func (e *Engine) less(i, j int32) bool {
	si, sj := &e.slots[i], &e.slots[j]
	if si.at != sj.at {
		return si.at < sj.at
	}
	return si.seq < sj.seq
}

// push appends slot i to the heap and restores the heap invariant.
func (e *Engine) push(i int32) {
	e.heap = append(e.heap, i)
	if len(e.heap) > e.maxPending {
		e.maxPending = len(e.heap)
	}
	e.slots[i].pos = int32(len(e.heap) - 1)
	e.siftUp(int32(len(e.heap) - 1))
}

func (e *Engine) siftUp(pos int32) {
	h := e.heap
	i := h[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !e.less(i, h[parent]) {
			break
		}
		h[pos] = h[parent]
		e.slots[h[pos]].pos = pos
		pos = parent
	}
	h[pos] = i
	e.slots[i].pos = pos
}

func (e *Engine) siftDown(pos int32) {
	h := e.heap
	n := int32(len(h))
	i := h[pos]
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], i) {
			break
		}
		h[pos] = h[best]
		e.slots[h[pos]].pos = pos
		pos = best
	}
	h[pos] = i
	e.slots[i].pos = pos
}

// popMin removes and returns the earliest slot index.
func (e *Engine) popMin() int32 {
	i := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	e.slots[i].pos = -1
	if n > 0 {
		e.heap[0] = last
		e.slots[last].pos = 0
		e.siftDown(0)
	}
	return i
}

// detach removes slot i from an arbitrary heap position (timer cancel
// and reschedule). The slot itself stays allocated.
func (e *Engine) detach(i int32) {
	pos := e.slots[i].pos
	n := int32(len(e.heap)) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	e.slots[i].pos = -1
	if pos == n {
		return
	}
	e.heap[pos] = last
	e.slots[last].pos = pos
	if pos > 0 && e.less(e.heap[pos], e.heap[(pos-1)/4]) {
		e.siftUp(pos)
	} else {
		e.siftDown(pos)
	}
}

// enqueue stamps slot i with the next sequence number and queues it at
// the (clamped) absolute time.
func (e *Engine) enqueue(i int32, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	s := &e.slots[i]
	s.at = at
	s.seq = e.seq
	e.push(i)
}

// ScheduleCall runs h.HandleEvent(now, a, b) at the given delay from
// now. Negative delays are clamped to zero (events cannot run in the
// past). No closure is created — the handler and its two arguments are
// stored inline in the event slot, so scheduling allocates nothing once
// the slot arena has warmed up.
func (e *Engine) ScheduleCall(delay Time, h Handler, a, b uint64) {
	if h == nil {
		return
	}
	if delay < 0 {
		delay = 0
	}
	i := e.acquire()
	s := &e.slots[i]
	s.h = h
	s.a, s.b = a, b
	e.enqueue(i, e.now+delay)
}

// ScheduleCallAt is ScheduleCall at an absolute time (clamped to now).
func (e *Engine) ScheduleCallAt(at Time, h Handler, a, b uint64) {
	if at < e.now {
		at = e.now
	}
	e.ScheduleCall(at-e.now, h, a, b)
}

// orderedBand marks sequence numbers supplied by the caller through
// ScheduleCallAtOrdered. It sits above every FIFO sequence the engine
// can assign (seq is a counter starting at 1), so at equal timestamps
// all FIFO-scheduled events run before all ordered events.
const orderedBand uint64 = 1 << 63

// ScheduleCallAtOrdered is ScheduleCallAt with a caller-supplied tie
// key in place of the engine's FIFO sequence number. At equal
// timestamps, ordered events run after every FIFO-scheduled event and
// among themselves in ascending key order — regardless of the order
// the ScheduleCallAtOrdered calls were made in. Keys must be unique
// per engine among pending ordered events and below 1<<63.
//
// This exists for cross-shard message merging: deliveries buffered on
// other lanes are injected in batches whose composition depends on
// window sizing, so FIFO sequence numbers would make equal-time tie
// order depend on the lookahead bound matrix. A key derived from the
// sending lane's own execution order keeps the merged schedule a pure
// function of simulation state.
func (e *Engine) ScheduleCallAtOrdered(at Time, h Handler, a, b uint64, key uint64) {
	if h == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	i := e.acquire()
	s := &e.slots[i]
	s.h = h
	s.a, s.b = a, b
	e.seq++ // counts toward Scheduled; the tie key below replaces it in the heap
	s.at = at
	s.seq = orderedBand | key
	e.push(i)
}

// Stop halts the engine: the currently executing event finishes, no
// further events run during the active Run* call, and the queue is left
// intact. Stop is one-shot — it halts at most one Run* call. Issued
// while the engine is idle, it inhibits exactly the next Run*/RunFor
// call, which returns immediately without executing anything (and, for
// RunUntil, without advancing the clock). The call after that resumes
// normally, so stop-then-rerun still drains the queue.
func (e *Engine) Stop() { e.stopped = true }

// consumeStop reports and clears a pending stop request. Clearing at
// the point of consumption (rather than on Run* entry) is what makes a
// pre-run Stop effective instead of silently discarded.
func (e *Engine) consumeStop() bool {
	if e.stopped {
		e.stopped = false
		return true
	}
	return false
}

// step executes the next event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	i := e.popMin()
	s := &e.slots[i]
	// Every schedule path clamps to now, so s.at >= e.now always; the
	// guard makes the clock monotonic by construction rather than by
	// trusting every (current and future) enqueue call site.
	if s.at > e.now {
		e.now = s.at
	}
	e.lastAt = e.now
	e.ran++
	h, a, b := s.h, s.a, s.b
	e.release(i)
	if e.probe != nil {
		e.dispatchProbed(h, a, b)
		return true
	}
	h.HandleEvent(e.now, a, b)
	return true
}

// dispatchProbed is the traced twin of step's dispatch: the same call,
// plus wall timing and a probe notification after it. Timer
// occurrences are reported as EventTimer with no handler. Kept out of
// step so the untraced hot path stays compact.
func (e *Engine) dispatchProbed(h Handler, a, b uint64) {
	start := time.Now()
	h.HandleEvent(e.now, a, b)
	class := EventCall
	if _, ok := h.(*timerHandler); ok {
		class, h = EventTimer, nil
	}
	e.probe.Dispatch(e.now, class, h, a, time.Since(start))
}

// Run executes events until the queue drains or Stop is called. A Stop
// issued before Run starts inhibits this call entirely (see Stop).
func (e *Engine) Run() {
	if e.consumeStop() {
		return
	}
	for e.step() {
		if e.consumeStop() {
			return
		}
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is
// advanced to the deadline even if the queue drains earlier, so
// repeated RunUntil calls walk time forward monotonically. When the run
// is halted by Stop — including a Stop issued before the call — the
// clock is not advanced past the last executed event.
func (e *Engine) RunUntil(deadline Time) {
	if e.consumeStop() {
		return
	}
	for len(e.heap) != 0 && e.slots[e.heap[0]].at <= deadline {
		e.step()
		if e.consumeStop() {
			return
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextEventAt returns the timestamp of the earliest queued event; ok is
// false when the queue is empty. The conductor uses it to derive each
// lookahead window without disturbing the queue.
func (e *Engine) NextEventAt() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Timer is a cancellable, reschedulable event handle bound to one
// callback. A subsystem allocates a Timer once and Resets it for every
// occurrence of its recurring event (mining race wins, workload
// arrivals, hold timeouts); the queue slot is pooled, so steady-state
// rescheduling allocates nothing.
//
// A queued occurrence is an ordinary (handler, a, b) event whose
// handler is an adapter on the timer, so timers share ScheduleCall's
// slot layout and dispatch path.
//
// Determinism contract: every Reset consumes the next global sequence
// number, exactly as a fresh ScheduleCall at the same point would — so
// replacing schedule-and-tombstone loops with a Timer preserves the
// relative order of all simultaneous events. Stop removes the queued
// occurrence without disturbing any other event's (at, seq) key.
type Timer struct {
	e    *Engine
	fn   Event
	slot int32 // queued slot index, -1 when idle
}

// timerHandler is the Handler a Timer's queued occurrence carries. It
// is a distinct type so Timer itself exports no HandleEvent method and
// traced dispatch can tell timer occurrences apart.
type timerHandler Timer

// HandleEvent marks the timer idle before the callback, so the callback
// can Reset (reschedule-in-callback) without tripping the still-pending
// path.
func (h *timerHandler) HandleEvent(now Time, _, _ uint64) {
	h.slot = -1
	h.fn(now)
}

// NewTimer creates an idle timer for fn. fn must be non-nil.
func (e *Engine) NewTimer(fn Event) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{e: e, fn: fn, slot: -1}
}

// Reset (re)schedules the timer to fire at delay from now, cancelling
// any pending occurrence. Negative delays clamp to zero.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

// ResetAt (re)schedules the timer to fire at an absolute time (clamped
// to now), cancelling any pending occurrence. The clamp is enforced
// here, not only in enqueue: step trusts every queued timestamp to be
// >= the clock, so the documented "clamped to now" contract must hold
// at this boundary no matter how the queue internals evolve.
func (t *Timer) ResetAt(at Time) {
	e := t.e
	if at < e.now {
		at = e.now
	}
	if t.slot >= 0 {
		e.detach(t.slot)
		e.enqueue(t.slot, at)
		return
	}
	i := e.acquire()
	e.slots[i].h = (*timerHandler)(t)
	t.slot = i
	e.enqueue(i, at)
}

// Stop cancels the pending occurrence, reporting whether one was
// pending. A stopped timer can be Reset again.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	e := t.e
	e.detach(t.slot)
	e.release(t.slot)
	t.slot = -1
	return true
}

// Pending reports whether an occurrence is queued.
func (t *Timer) Pending() bool { return t.slot >= 0 }

// When returns the pending occurrence's firing time; ok is false when
// the timer is idle.
func (t *Timer) When() (at Time, ok bool) {
	if t.slot < 0 {
		return 0, false
	}
	return t.e.slots[t.slot].at, true
}

// RNG is a deterministic random stream with the distribution helpers
// the simulation model needs. It wraps PCG from math/rand/v2.
type RNG struct {
	r *rand.Rand
}

// NewRNG creates a deterministic stream from a 64-bit seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent child stream. Using labeled forks keeps
// subsystem randomness independent of event interleaving: adding events
// to one subsystem does not perturb another's draws.
func (g *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037)
	for _, c := range []byte(label) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return NewRNG(g.r.Uint64() ^ h)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform sample in [0, n). n must be > 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exponential samples an exponential distribution with the given mean.
// It is the arrival law for both block production (Poisson mining
// race) and transaction submission.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// ExpTime samples an exponential inter-arrival as a virtual duration.
func (g *RNG) ExpTime(mean Time) Time {
	return Time(math.Round(g.Exponential(float64(mean))))
}

// LogNormal samples a log-normal distribution parameterized by the
// underlying normal's mu and sigma. Internet one-way-delay jitter is
// classically log-normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s > 1,
// used to skew transaction-sender activity (a few accounts produce
// most traffic). For repeated draws with the same parameters prefer
// NewZipf, which precomputes the CDF.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	return NewZipf(g, n, s).Sample()
}

// Zipf is a precomputed discrete Zipf sampler over [0, n).
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a sampler with exponent s over [0, n). Degenerate
// parameters (n <= 1) yield a sampler that always returns 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	z := &Zipf{rng: rng}
	if n <= 1 {
		return z
	}
	z.cdf = make([]float64, n)
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		z.cdf[k-1] = acc
	}
	return z
}

// Sample draws one index.
func (z *Zipf) Sample() int {
	if len(z.cdf) == 0 {
		return 0
	}
	u := z.rng.Float64() * z.cdf[len(z.cdf)-1]
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice draws an index proportionally to weights. It returns
// an error when no weight is positive.
func (g *RNG) WeightedChoice(weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("sim: weighted choice over non-positive weights %v", weights)
	}
	u := g.r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u <= acc {
			return i, nil
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: weighted choice fell through")
}

// Weighted is a precomputed cumulative-weight sampler over a fixed
// weight vector: construction is O(n), each draw is one uniform sample
// plus a binary search. It makes exactly the same choice WeightedChoice
// would make from the same RNG state (same single Float64 draw, same
// selection rule), so hot paths can switch to it without perturbing
// seeded runs. Non-positive weights are never drawn.
type Weighted struct {
	cdf   []float64 // cumulative sums over positive weights only
	index []int     // original index of each positive weight
	total float64
}

// NewWeighted builds a sampler over weights. It returns an error when
// no weight is positive, matching WeightedChoice.
func NewWeighted(weights []float64) (*Weighted, error) {
	w := &Weighted{}
	var total float64
	for i, x := range weights {
		if x <= 0 {
			continue
		}
		total += x
		w.cdf = append(w.cdf, total)
		w.index = append(w.index, i)
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: weighted sampler over non-positive weights %v", weights)
	}
	w.total = total
	return w, nil
}

// Sample draws one index proportionally to the weights.
func (w *Weighted) Sample(g *RNG) int {
	u := g.r.Float64() * w.total
	// First positive-weight position with cdf >= u — the same index the
	// linear scan in WeightedChoice stops at (its condition is u <= acc
	// over the running sum of positive weights).
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return w.index[lo]
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto fills p with a random permutation of [0, len(p)), consuming
// exactly the same RNG draws as Perm(len(p)) — a seeded run can switch
// between them freely. It exists so hot paths can reuse a scratch
// buffer instead of allocating a fresh permutation per call.
func (g *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	g.r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle permutes xs in place.
func Shuffle[T any](g *RNG, xs []T) {
	g.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
