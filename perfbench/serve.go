package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/store"
)

// serve-chain drives an in-process ethserve over loopback HTTP with
// closed-loop clients, each holding one connection and submitting its
// next chain-spec campaign only after fetching the last one's
// artifacts.
const (
	serveClients = 2
	// serveSeedCycle is how many distinct seeds each client cycles
	// through. A traced run's two sessions together run every seed at
	// least three times, and every repeat must reproduce the first
	// run's Merkle root and counters.
	serveSeedCycle = 10
	// serveSegmentOps is how many campaigns each client runs between
	// two calibrations of the host (host.go). The clients wait for each
	// other at the end of a segment, so the calibration runs on an idle
	// server.
	serveSegmentOps = 2
	// serveSetups is how many times a session starts a server; setup_s
	// is their median and the last one serves the campaigns. A start
	// takes about a millisecond, so many are cheap and steady the median.
	serveSetups = 101
	// serveChainBlocks is the chain spec's block budget at small scale,
	// the work of one campaign's simulate phase.
	serveChainBlocks = 20_000
	// serveMaxSeconds stops a session that cannot collect its samples.
	serveMaxSeconds = 70
)

type serveWorkload struct{}

// serveOp is one campaign as its client saw it.
type serveOp struct {
	seed     uint64
	start    time.Time
	submit   time.Time // POST answered
	resulted time.Time // SSE result event
	done     time.Time // SSE done state
	fetched  time.Time // artifacts fetched and digest-checked
	tel      experiments.TelemetryRow
	blocks   float64
	root     string
	bytes    int64
	files    int
	store    *timedStore
	problems []string
	kernel   float64 // reference-kernel time bracketing its segment
}

// session is one server lifetime and the campaigns it served.
type session struct {
	setups []float64
	// setupKernel is the reference-kernel time bracketing the set-ups.
	setupKernel float64
	ops         []*serveOp
	rejected    int
	mem         memDelta
	rss         float64 // peak resident MB while serving
}

// run measures serve-chain. Untraced, one session collects enough
// campaigns for the median (sealed_p50_s); traced, an untraced session
// collects enough for p75 (sealed.p75_s) and a traced one follows.
func (serveWorkload) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	if !rc.trace {
		plain, err := serveSession(rc, nil, out, samplesFor(50))
		if err != nil {
			return nil, err
		}
		serveEndToEnd(out, plain)
		return out, nil
	}
	plain, err := serveSession(rc, nil, out, samplesFor(75))
	if err != nil {
		return nil, err
	}
	out.tr = newTracer()
	traced, err := serveSession(rc, out.tr, out, samplesFor(50))
	if err != nil {
		return nil, err
	}
	// Every seed ran in both sessions; all runs of one seed must agree.
	bySeed := map[uint64]*serveOp{}
	var checks []driftCheck
	for _, op := range append(append([]*serveOp{}, plain.ops...), traced.ops...) {
		first, ok := bySeed[op.seed]
		if !ok {
			bySeed[op.seed] = op
			continue
		}
		checks = append(checks,
			driftCheck{"merkle root", first.root, op.root},
			driftCheck{"sim.events", first.tel.Events, op.tel.Events},
			driftCheck{"p2p.messages", first.tel.Messages, op.tel.Messages},
			driftCheck{"sim.conductor.stalled", first.tel.ShardStalled, op.tel.ShardStalled},
			driftCheck{"store.bytes", first.bytes, op.bytes})
	}
	out.drift("repeated seeds", checks)
	serveLayers(out, plain, traced)
	return out, nil
}

// serveSession starts a server, runs the clients until the time is up
// and at least minSamples campaigns are in, stops everything and
// verifies every sealed run directory.
func serveSession(rc runConfig, tr *tracer, out *outcome, minSamples int) (*session, error) {
	name := "plain"
	if tr != nil {
		name = "traced"
	}
	root := filepath.Join(rc.dir, "serve", name)
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	var stores sync.Map // campaign ID -> *timedStore
	// One executor: with two closed-loop clients each campaign waits in
	// the queue while the other runs, so the queue does work. With two
	// executors it stayed empty (queue wait clipped to 0) and the two
	// campaigns competed for a second vCPU the host does not always
	// grant.
	cfg := server.Config{
		Campaigns:    1,
		WorkerBudget: runtime.NumCPU(),
		// Telemetry is on in both sessions: sim_blocks_per_s and the
		// determinism counters need each campaign's telemetry.json.
		Telemetry: true,
		OpenStore: func(id string) (store.Store, error) {
			st := &timedStore{inner: store.NewFS(filepath.Join(root, id))}
			stores.Store(id, st)
			return st, nil
		},
	}
	s := &session{}
	var live *loopback
	kernel := calibrate()
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		lb, err := startLoopback(cfg)
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			lb.close()
		} else {
			live = lb
		}
	}
	next := calibrate()
	s.setupKernel = hostBracket(kernel, next)
	kernel = next

	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	// A segment starts while samples are missing, or if one as long as
	// the last still ends within the measuring time.
	var last float64
	more := func() bool {
		el := time.Since(start).Seconds()
		return el < serveMaxSeconds && (el+last <= rc.seconds || len(s.ops)+s.rejected < minSamples)
	}
	clients := make([]*http.Client, serveClients)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	var clientErr error
	for seg := 0; clientErr == nil && more(); seg++ {
		segStart := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var mu sync.Mutex
		var wg sync.WaitGroup
		var ops []*serveOp
		for c, hc := range clients {
			wg.Add(1)
			go func(c int, hc *http.Client) {
				defer wg.Done()
				for j := 0; j < serveSegmentOps; j++ {
					k := seg*serveSegmentOps + j
					seed := deriveSeed(rc.seed, uint64(c*serveSeedCycle+k%serveSeedCycle))
					op, rejected, err := runServeOp(hc, live.url, seed, &stores)
					mu.Lock()
					switch {
					case err != nil:
						clientErr = err
					case rejected:
						s.rejected++
					default:
						ops = append(ops, op)
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}(c, hc)
		}
		wg.Wait()
		// Runtime activity is summed over the segments only, so the
		// calibrations' allocations are not charged to the campaigns.
		runtime.ReadMemStats(&after)
		d := memDiff(before, after)
		s.mem.allocMB += d.allocMB
		s.mem.gcCycles += d.gcCycles
		s.mem.gcPauseMS += d.gcPauseMS
		next := calibrate()
		for _, op := range ops {
			op.kernel = hostBracket(kernel, next)
		}
		kernel = next
		s.ops = append(s.ops, ops...)
		last = time.Since(segStart).Seconds()
	}
	for _, hc := range clients {
		hc.CloseIdleConnections()
	}
	s.rss = peakRSSMB()
	live.close()
	if clientErr != nil {
		return nil, clientErr
	}

	for i, op := range s.ops {
		if err := store.Verify(op.store.inner); err != nil {
			op.problems = append(op.problems, "store.Verify: "+err.Error())
		}
		out.attempted++
		if len(op.problems) > 0 {
			out.fail(fmt.Sprintf("%s campaign seed %d", name, op.seed), op.problems...)
		}
		if tr != nil {
			serveSpans(tr, i, op)
		}
	}
	for i := 0; i < s.rejected; i++ {
		out.attempted++
		out.fail(name+" campaign", "rejected with 503")
	}
	return s, os.RemoveAll(root)
}

// loopback is a started server listening on 127.0.0.1.
type loopback struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startLoopback starts a server and waits until /healthz answers.
func startLoopback(cfg server.Config) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: server.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	lb.http = &http.Server{Handler: lb.srv}
	go func() {
		defer close(lb.done)
		lb.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	resp, err := http.Get(lb.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		lb.close()
		return nil, err
	}
	return lb, nil
}

// close stops the HTTP listener, then the server's executors, and
// waits for both.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lb.http.Shutdown(ctx); err != nil {
		lb.http.Close()
	}
	<-lb.done
	lb.srv.Close()
}

// runServeOp submits one campaign, follows its events to a terminal
// state and fetches its manifest, outcomes and telemetry. rejected
// reports a 503.
func runServeOp(hc *http.Client, base string, seed uint64, stores *sync.Map) (*serveOp, bool, error) {
	op := &serveOp{seed: seed, start: time.Now()}
	body, _ := json.Marshal(server.SubmitRequest{Specs: []string{"chain"}, Seed: seed, Scale: "small"})
	resp, err := hc.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, false, fmt.Errorf("submit: %s: %s", resp.Status, data)
	}
	op.submit = time.Now()
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, false, err
	}
	v, ok := stores.Load(st.ID)
	if !ok {
		return nil, false, fmt.Errorf("campaign %s opened no store", st.ID)
	}
	op.store = v.(*timedStore)

	state, err := op.follow(hc, base+"/campaigns/"+st.ID+"/events")
	if err != nil {
		return nil, false, err
	}
	if state != server.StateDone {
		op.problems = append(op.problems, fmt.Sprintf("campaign %s ended %s", st.ID, state))
		op.fetched = time.Now()
		return op, false, nil
	}
	mem := store.NewMem()
	for _, name := range []string{store.ManifestFile, experiments.OutcomesJSON, experiments.TelemetryFile} {
		blob, err := get(hc, base+"/campaigns/"+st.ID+"/artifacts/"+name)
		if err != nil {
			return nil, false, err
		}
		if err := mem.Put(name, blob); err != nil {
			return nil, false, err
		}
	}
	op.fetched = time.Now()
	return op, false, op.check(mem)
}

// follow reads the campaign's SSE stream to its terminal state,
// stamping the lifecycle events as they arrive.
func (op *serveOp) follow(hc *http.Client, url string) (server.State, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return "", err
		}
		now := time.Now()
		switch ev.Type {
		case "result":
			op.resulted = now
			if ev.Error != "" {
				op.problems = append(op.problems, "run failed: "+ev.Error)
			}
		case "state":
			if ev.State.Terminal() {
				op.done = now
				// Drain to EOF so the connection can be reused.
				_, err := io.Copy(io.Discard, resp.Body)
				return ev.State, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events: stream ended before a terminal state")
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// check compares the fetched artifacts with their manifest digests and
// applies the chain bands. Problems are the campaign's; the error is
// for artifacts that cannot be read at all.
func (op *serveOp) check(mem *store.Mem) error {
	m, err := store.ReadManifest(mem)
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, f := range m.Files {
		digests[f.Path] = f.SHA256
	}
	for _, name := range []string{experiments.OutcomesJSON, experiments.TelemetryFile} {
		blob, err := mem.Get(name)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != digests[name] {
			op.problems = append(op.problems, fmt.Sprintf("%s digest %s, manifest says %q", name, got, digests[name]))
		}
	}
	op.root, op.bytes, op.files = scienceDigest(m)
	report, err := experiments.ReadArtifacts(mem)
	if err != nil {
		return err
	}
	tel, err := experiments.ReadTelemetry(mem)
	if err != nil {
		return err
	}
	if len(tel.Runs) != 1 {
		return fmt.Errorf("telemetry: %d rows, want 1", len(tel.Runs))
	}
	op.tel = tel.Runs[0]
	b := newBands(report)
	checkChain(b)
	op.blocks = b.metric("T3", "main_blocks") + b.metric("T3", "uncle_blocks") + b.metric("T3", "unrecognized")
	op.problems = append(op.problems, b.problems...)
	return nil
}

// serveSpans records one campaign's lifecycle as seen by its client,
// with the store calls the server made inside the sealing phase.
func serveSpans(tr *tracer, op int, s *serveOp) {
	root := tr.add(op, -1, "campaign", s.start, s.fetched)
	tr.add(op, root, "server.submit", s.start, s.submit)
	tr.lifecycle(op, root, s.submit, s.resulted, s.tel)
	seal := tr.add(op, root, "server.seal", s.resulted, s.done)
	for _, c := range s.store.calls() {
		lo, hi := maxTime(c.start, s.resulted), minTime(c.end, s.done)
		if hi.After(lo) {
			tr.add(op, seal, c.span, lo, hi)
		}
	}
	tr.add(op, root, "store.fetch", s.done, s.fetched)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// serveEndToEnd fills the user-facing metrics from the untraced
// session, in reference seconds (host.go).
func serveEndToEnd(out *outcome, s *session) {
	var walls, raw, kernels, setups []float64
	var runS float64
	for _, op := range s.ops {
		wall := op.fetched.Sub(op.start).Seconds()
		walls = append(walls, adjust(wall, op.kernel))
		raw = append(raw, wall)
		kernels = append(kernels, op.kernel)
		runS += adjust(op.tel.RunMS/1e3, op.kernel)
	}
	for _, t := range s.setups {
		setups = append(setups, adjust(t, s.setupKernel))
	}
	out.m["wall_s"] = median(walls)
	out.m["setup_s"] = median(setups)
	out.m["sim_blocks_per_s"] = ratio(float64(len(s.ops)*serveChainBlocks), runS)
	out.m["sealed_p50_s"] = percentile(s.sealed(), 50)
	out.m["peak_rss_mb"] = s.rss
	out.m["host.raw_wall_s"] = median(raw)
	out.m["host.kernel_s"] = median(kernels)
}

// sealed lists each campaign's submit-to-sealed latency in reference
// seconds.
func (s *session) sealed() []float64 {
	var xs []float64
	for _, op := range s.ops {
		xs = append(xs, adjust(op.done.Sub(op.start).Seconds(), op.kernel))
	}
	return xs
}

// serveLayers fills the per-layer metrics from the traced session.
func serveLayers(out *outcome, plain, traced *session) {
	var walls, kernels, events, queue, blocks, bytes, files []float64
	var rows []experiments.TelemetryRow
	var simS, runS, allEvents, allBlocks float64
	for _, op := range plain.ops {
		walls = append(walls, op.fetched.Sub(op.start).Seconds())
		kernels = append(kernels, op.kernel)
	}
	out.m["host.raw_wall_s"] = median(walls)
	out.m["host.kernel_s"] = median(kernels)
	for _, op := range traced.ops {
		rows = append(rows, op.tel)
		events = append(events, float64(op.tel.Events))
		queue = append(queue, float64(op.tel.PeakQueue))
		blocks = append(blocks, op.blocks)
		bytes = append(bytes, float64(op.bytes))
		files = append(files, float64(op.files))
		simS += float64(op.tel.SimMS) / 1e3
		runS += op.tel.RunMS / 1e3
		allEvents += float64(op.tel.Events)
		allBlocks += op.blocks
	}
	out.spanMetrics(walls)
	out.m["sim.s_per_s"] = ratio(simS, runS)
	out.m["sim.events"] = median(events)
	out.m["sim.events_per_s"] = ratio(allEvents, runS)
	out.m["sim.peak_queue"] = median(queue)
	out.conductor(rows...)
	// No overlay: every transport, relay, measurement and workload
	// counter is zero by construction, and reported as such.
	for _, name := range []string{"p2p.messages", "p2p.mbytes", "p2p.msgs_per_block",
		"relay.vantage_receptions_per_block", "measure.receptions",
		"txgen.txs", "txgen.included_frac", "runtime.bytes_per_node"} {
		out.m[name] = 0
	}
	for _, c := range msgClasses {
		out.m["p2p.class."+c+".messages"] = 0
	}
	for _, r := range rows {
		out.m["p2p.messages"] += float64(r.Messages)
	}
	out.m["mining.blocks"] = median(blocks)
	out.m["mining.blocks_per_s"] = ratio(allBlocks, runS)
	out.m["store.bytes"] = median(bytes)
	out.m["store.files"] = median(files)
	out.m["server.rejected"] = float64(plain.rejected + traced.rejected)
	out.memory(traced.mem, len(traced.ops))
	n := len(plain.ops)
	tail, _ := highestTail(n)
	out.m["sealed.p75_s"] = percentile(plain.sealed(), 75)
	out.m["sealed.samples"] = float64(n)
	out.m["sealed.tail_pct"] = tail
}

// timedStore records the interval of every store call that writes, so
// the client can split the server's sealing phase into artifact writes
// and the manifest (digest and write).
type timedStore struct {
	inner store.Store
	mu    sync.Mutex
	log   []storeCall
}

type storeCall struct {
	span       string
	start, end time.Time
}

func (s *timedStore) note(span string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.log = append(s.log, storeCall{span, start, end})
	s.mu.Unlock()
}

func (s *timedStore) calls() []storeCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]storeCall(nil), s.log...)
}

func (s *timedStore) Put(name string, data []byte) error {
	defer s.note(putSpan(name), time.Now())
	return s.inner.Put(name, data)
}

func putSpan(name string) string {
	if name == store.ManifestFile {
		return "store.seal"
	}
	return "store.write"
}

func (s *timedStore) Delete(name string) error {
	defer s.note("store.write", time.Now())
	return s.inner.Delete(name)
}

func (s *timedStore) Manifest() (*store.Manifest, error) {
	defer s.note("store.seal", time.Now())
	return s.inner.Manifest()
}

func (s *timedStore) Get(name string) ([]byte, error) { return s.inner.Get(name) }
func (s *timedStore) List() ([]string, error)         { return s.inner.List() }
