package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
)

// span is one timed interval around a call into a layer. Spans of one
// operation (one campaign) share Op; Parent is the enclosing span's ID,
// or -1 for the operation's root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer is
// valid and records nothing, which is how untraced runs measure.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
	return id
}

// addSplit records children of parent laid end to end from start, one
// per (name, seconds) pair — how a call that covers several layers is
// split by the durations the program itself reports. Each child is
// clipped to the parent.
func (t *tracer) addSplit(op, parent int, start time.Time, parts []part) {
	if t == nil {
		return
	}
	limit := t.spans[parent].End
	at := start.Sub(t.epoch).Seconds()
	for _, p := range parts {
		end := min(at+p.seconds, limit)
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: p.name, Start: at, End: end})
		at = end
	}
}

// part is one named share of a split span.
type part struct {
	name    string
	seconds float64
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children are
// counted once).
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		var iv [][2]float64
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := 0.0, 0.0, 0.0
		for k, v := range iv {
			switch {
			case k == 0:
				curLo, curHi = v[0], v[1]
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// opSelf sums self time per span name within each operation, and the
// self times of each operation's whole tree (the root's duration when
// every child lies inside its parent).
func opSelf(spans []span) (byName map[string][]float64, total []float64, roots []float64) {
	self := selfTimes(spans)
	perOp := map[int]map[string]float64{}
	sums := map[int]float64{}
	var ops []int
	for i, s := range spans {
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]float64{}
			ops = append(ops, s.Op)
		}
		perOp[s.Op][s.Name] += self[i]
		sums[s.Op] += self[i]
		if s.Parent < 0 {
			roots = append(roots, s.dur())
		}
	}
	byName = map[string][]float64{}
	for _, op := range ops {
		for name, v := range perOp[op] {
			byName[name] = append(byName[name], v)
		}
		total = append(total, sums[op])
	}
	return byName, total, roots
}

// write stores the spans and the run's provenance as JSON under dir.
func (t *tracer) write(dir, name string, prov provenance) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// lifecycle records a run's queue and runner spans between submission
// and its result. The runner span ends when the result arrives and
// lasts the runner's own elapsed time, so a late callback or SSE event
// moves time into the queue, not into a layer. It is split into the
// phases the telemetry row times: campaign construction, the engine
// run, and everything after it inside the spec (index, figures,
// rendering).
func (t *tracer) lifecycle(op, root int, submitted, resulted time.Time, row experiments.TelemetryRow) {
	if t == nil {
		return
	}
	picked := resulted.Add(-time.Duration(row.ElapsedMS * float64(time.Millisecond)))
	if picked.Before(submitted) {
		picked = submitted
	}
	t.add(op, root, "server.queue", submitted, picked)
	run := t.add(op, root, "experiments.run", picked, resulted)
	t.addSplit(op, run, picked, []part{
		{"core.build", row.BuildMS / 1e3},
		{"sim.run", row.RunMS / 1e3},
		{"analysis.post_run", (row.ElapsedMS - row.BuildMS - row.RunMS) / 1e3},
	})
}
