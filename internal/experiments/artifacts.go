package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/store"
)

// Artifact file names inside a run store (the paper_runs/<stamp>
// layout: machine-readable CSV/JSON plus the rendered tables).
const (
	ManifestFile = store.ManifestFile
	OutcomesJSON = "outcomes.json"
	RenderedFile = "rendered.txt"
	CSVDir       = "csv"
	OutcomesCSV  = "outcomes.csv"
	SummaryCSV   = "summary.csv"
)

// runArtifact is the JSON form of one (spec, repeat) result.
type runArtifact struct {
	Spec    string     `json:"spec"`
	Repeat  int        `json:"repeat"`
	Seed    uint64     `json:"seed"`
	Error   string     `json:"error,omitempty"`
	Outcome []*Outcome `json:"outcomes,omitempty"`
}

// reportArtifact is the JSON form of a whole campaign.
type reportArtifact struct {
	Seed      uint64          `json:"seed"`
	Scale     string          `json:"scale"`
	Repeats   int             `json:"repeats"`
	Runs      []runArtifact   `json:"runs"`
	Summaries []MetricSummary `json:"summaries"`
}

// Manifest is a campaign run's manifest.json: the campaign metadata
// (seed, scale, repeats, selected specs) joined with the store
// digest record (schema version, Merkle root, per-file digests).
type Manifest struct {
	SchemaVersion int          `json:"schema_version,omitempty"`
	Seed          uint64       `json:"seed"`
	Scale         string       `json:"scale"`
	Repeats       int          `json:"repeats"`
	Specs         []string     `json:"specs"`
	MerkleRoot    string       `json:"merkle_root,omitempty"`
	Files         []store.File `json:"files,omitempty"`
}

// WriteArtifacts persists a campaign report into a store:
//
//	outcomes.json    — every run's outcomes and the aggregation
//	rendered.txt     — the paper-style tables (first repeat)
//	csv/outcomes.csv — one row per (spec, repeat, outcome, metric)
//	csv/summary.csv  — cross-repeat mean/std per (outcome, metric)
//
// Every blob is a pure function of the report, so artifacts are
// byte-identical however many workers produced the report and
// whichever backend stores them. The manifest is NOT written here:
// callers add any sibling blobs (the embedded scenario.json, ...)
// and then seal the store with WriteManifest, so the Merkle root
// covers everything.
func WriteArtifacts(st store.Store, r *Report) error {
	if err := writeOutcomesJSON(st, r); err != nil {
		return err
	}
	if err := writeRendered(st, r); err != nil {
		return err
	}
	if err := writeOutcomesCSV(st, r); err != nil {
		return err
	}
	return writeSummaryCSV(st, r)
}

// WriteManifest digests the store's current contents and writes the
// versioned manifest.json carrying the campaign metadata, per-file
// SHA-256 digests and the Merkle root batching them. Call it last:
// blobs added after the manifest would fail verification.
func WriteManifest(st store.Store, r *Report) error {
	m, err := st.Manifest()
	if err != nil {
		return fmt.Errorf("experiments: digest artifacts: %w", err)
	}
	specIDs := []string{}
	seen := map[string]bool{}
	for _, res := range r.Results {
		if !seen[res.Spec.ID] {
			seen[res.Spec.ID] = true
			specIDs = append(specIDs, res.Spec.ID)
		}
	}
	doc := Manifest{
		SchemaVersion: m.SchemaVersion,
		Seed:          r.Seed,
		Scale:         r.Scale.String(),
		Repeats:       r.Repeats,
		Specs:         specIDs,
		MerkleRoot:    m.MerkleRoot,
		Files:         m.Files,
	}
	return putJSON(st, ManifestFile, doc)
}

// ReadManifest loads a run store's manifest.json. A manifest older
// than store.SchemaVersion is an error. Reading does not verify the
// digests; callers that need tamper evidence use store.Verify.
func ReadManifest(st store.Store) (*Manifest, error) {
	data, err := st.Get(ManifestFile)
	if err != nil {
		return nil, fmt.Errorf("experiments: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", ManifestFile, err)
	}
	if err := store.CheckSchemaVersion(m.SchemaVersion); err != nil {
		return nil, err
	}
	return &m, nil
}

func putJSON(st store.Store, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal %s: %w", name, err)
	}
	return st.Put(name, append(data, '\n'))
}

func writeOutcomesJSON(st store.Store, r *Report) error {
	art := reportArtifact{
		Seed:      r.Seed,
		Scale:     r.Scale.String(),
		Repeats:   r.Repeats,
		Runs:      make([]runArtifact, 0, len(r.Results)),
		Summaries: r.Summaries,
	}
	for _, res := range r.Results {
		run := runArtifact{
			Spec:    res.Spec.ID,
			Repeat:  res.Repeat,
			Seed:    res.Seed,
			Outcome: res.Outcomes,
		}
		if res.Err != nil {
			run.Error = res.Err.Error()
		}
		art.Runs = append(art.Runs, run)
	}
	return putJSON(st, OutcomesJSON, art)
}

func writeRendered(st store.Store, r *Report) error {
	out := r.RenderOutcomes() + r.RenderSummary()
	return st.Put(RenderedFile, []byte(out))
}

func putCSV(st store.Store, name string, rows [][]string) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		return fmt.Errorf("experiments: write %s: %w", name, err)
	}
	return st.Put(name, buf.Bytes())
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeOutcomesCSV(st store.Store, r *Report) error {
	rows := [][]string{{"spec", "repeat", "seed", "outcome", "metric", "value"}}
	for _, res := range r.Results {
		if res.Err != nil {
			continue
		}
		for _, o := range res.Outcomes {
			metrics := make([]string, 0, len(o.Metrics))
			for m := range o.Metrics {
				metrics = append(metrics, m)
			}
			sort.Strings(metrics)
			for _, m := range metrics {
				rows = append(rows, []string{
					res.Spec.ID,
					strconv.Itoa(res.Repeat),
					strconv.FormatUint(res.Seed, 10),
					o.ID, m, fmtFloat(o.Metrics[m]),
				})
			}
		}
	}
	return putCSV(st, CSVDir+"/"+OutcomesCSV, rows)
}

func writeSummaryCSV(st store.Store, r *Report) error {
	rows := [][]string{{"outcome", "metric", "n", "mean", "std", "min", "max"}}
	for _, s := range r.Summaries {
		rows = append(rows, []string{
			s.OutcomeID, s.Metric, strconv.Itoa(s.N),
			fmtFloat(s.Mean), fmtFloat(s.StdDev), fmtFloat(s.Min), fmtFloat(s.Max),
		})
	}
	return putCSV(st, CSVDir+"/"+SummaryCSV, rows)
}

// ReadArtifacts loads a run store written by WriteArtifacts back
// into a Report (cmd/ethanalyze's campaign mode). Spec fields carry
// only the recorded ID — the Run function is not reconstructed.
func ReadArtifacts(st store.Store) (*Report, error) {
	data, err := st.Get(OutcomesJSON)
	if err != nil {
		return nil, fmt.Errorf("experiments: read artifacts: %w", err)
	}
	var art reportArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", OutcomesJSON, err)
	}
	scale, err := ParseScale(art.Scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Seed:      art.Seed,
		Scale:     scale,
		Repeats:   art.Repeats,
		Summaries: art.Summaries,
	}
	for _, run := range art.Runs {
		res := Result{
			Spec:     Spec{ID: run.Spec},
			Repeat:   run.Repeat,
			Seed:     run.Seed,
			Outcomes: run.Outcome,
		}
		if run.Error != "" {
			res.Err = fmt.Errorf("%s", run.Error)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}
