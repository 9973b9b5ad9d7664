package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

func fakeReport(t *testing.T) *Report {
	t.Helper()
	specs := []Spec{fakeSpec("X1"), fakeSpec("X2")}
	rep, err := Run(context.Background(), specs, RunnerConfig{Seed: 11, Scale: ScaleSmall, Repeats: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// artifactStores writes a full, sealed artifact set (artifacts +
// manifest) into a fresh store of each backend kind.
func artifactStores(t *testing.T, rep *Report) map[string]store.Store {
	t.Helper()
	stores := map[string]store.Store{
		"fs":  store.NewFS(filepath.Join(t.TempDir(), "run")),
		"mem": store.NewMem(),
	}
	for name, st := range stores {
		if err := WriteArtifacts(st, rep); err != nil {
			t.Fatalf("%s: write artifacts: %v", name, err)
		}
		if err := WriteManifest(st, rep); err != nil {
			t.Fatalf("%s: write manifest: %v", name, err)
		}
	}
	return stores
}

func TestWriteAndReadArtifacts(t *testing.T) {
	rep := fakeReport(t)
	for name, st := range artifactStores(t, rep) {
		t.Run(name, func(t *testing.T) {
			back, err := ReadArtifacts(st)
			if err != nil {
				t.Fatal(err)
			}
			if back.Seed != rep.Seed || back.Scale != rep.Scale || back.Repeats != rep.Repeats {
				t.Fatalf("header mismatch: %+v", back)
			}
			if !reflect.DeepEqual(back.Summaries, rep.Summaries) {
				t.Fatalf("summaries round-trip:\n%+v\n%+v", back.Summaries, rep.Summaries)
			}
			if len(back.Results) != len(rep.Results) {
				t.Fatalf("results: %d vs %d", len(back.Results), len(rep.Results))
			}
			for i, res := range back.Results {
				orig := rep.Results[i]
				if res.Spec.ID != orig.Spec.ID || res.Repeat != orig.Repeat || res.Seed != orig.Seed {
					t.Fatalf("result %d mismatch: %+v vs %+v", i, res, orig)
				}
				if !reflect.DeepEqual(res.Outcomes, orig.Outcomes) {
					t.Fatalf("outcomes %d diverged", i)
				}
			}

			// rendered.txt carries the first repeat's tables plus the summary.
			rendered, err := st.Get(RenderedFile)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"== X1:", "== X2:", "Campaign summary"} {
				if !strings.Contains(string(rendered), want) {
					t.Fatalf("rendered.txt missing %q:\n%s", want, rendered)
				}
			}
		})
	}
}

func TestManifestRoundTripAndVerify(t *testing.T) {
	rep := fakeReport(t)
	for name, st := range artifactStores(t, rep) {
		t.Run(name, func(t *testing.T) {
			m, err := ReadManifest(st)
			if err != nil {
				t.Fatal(err)
			}
			if m.SchemaVersion != store.SchemaVersion {
				t.Fatalf("fresh manifest schema_version %d, want %d", m.SchemaVersion, store.SchemaVersion)
			}
			if m.Seed != rep.Seed || m.Scale != rep.Scale.String() || m.Repeats != rep.Repeats {
				t.Fatalf("campaign metadata mismatch: %+v", m)
			}
			if !reflect.DeepEqual(m.Specs, []string{"X1", "X2"}) {
				t.Fatalf("specs: %v", m.Specs)
			}
			if m.MerkleRoot == "" || len(m.Files) != 4 {
				t.Fatalf("digest record incomplete: root=%q files=%+v", m.MerkleRoot, m.Files)
			}
			if err := store.Verify(st); err != nil {
				t.Fatalf("sealed artifacts fail verification: %v", err)
			}
			// Tamper: a single CSV byte flips.
			data, err := st.Get(CSVDir + "/" + OutcomesCSV)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 1
			if err := st.Put(CSVDir+"/"+OutcomesCSV, data); err != nil {
				t.Fatal(err)
			}
			if err := store.Verify(st); err == nil {
				t.Fatal("verification missed a tampered artifact")
			}
		})
	}
}

func readCSVBlob(t *testing.T, st store.Store, name string) [][]string {
	t.Helper()
	data, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestArtifactCSVLayout(t *testing.T) {
	rep := fakeReport(t)
	st := store.NewMem()
	if err := WriteArtifacts(st, rep); err != nil {
		t.Fatal(err)
	}

	outcomes := readCSVBlob(t, st, CSVDir+"/"+OutcomesCSV)
	wantHeader := []string{"spec", "repeat", "seed", "outcome", "metric", "value"}
	if !reflect.DeepEqual(outcomes[0], wantHeader) {
		t.Fatalf("outcomes header: %v", outcomes[0])
	}
	// 2 specs x 3 repeats x 1 metric.
	if len(outcomes) != 1+6 {
		t.Fatalf("outcome rows: %d", len(outcomes)-1)
	}

	summary := readCSVBlob(t, st, CSVDir+"/"+SummaryCSV)
	if !reflect.DeepEqual(summary[0], []string{"outcome", "metric", "n", "mean", "std", "min", "max"}) {
		t.Fatalf("summary header: %v", summary[0])
	}
	if len(summary) != 1+2 {
		t.Fatalf("summary rows: %d", len(summary)-1)
	}
}

// TestWriteArtifactsDeterministic also pins cross-backend identity:
// the same report must produce the same bytes into a filesystem store
// and an in-memory store — the server's determinism contract.
func TestWriteArtifactsDeterministic(t *testing.T) {
	rep := fakeReport(t)
	stores := []store.Store{
		store.NewFS(filepath.Join(t.TempDir(), "a")),
		store.NewFS(filepath.Join(t.TempDir(), "b")),
		store.NewMem(),
	}
	for _, st := range stores {
		if err := WriteArtifacts(st, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteManifest(st, rep); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{ManifestFile, OutcomesJSON, RenderedFile,
		CSVDir + "/" + OutcomesCSV, CSVDir + "/" + SummaryCSV} {
		first, err := stores[0].Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stores[1:] {
			other, err := st.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, other) {
				t.Fatalf("%s not deterministic across stores", name)
			}
		}
	}
}

func TestReadArtifactsRejectsMissingStore(t *testing.T) {
	if _, err := ReadArtifacts(store.NewFS(filepath.Join(t.TempDir(), "nope"))); err == nil {
		t.Fatal("missing dir must fail")
	}
	if _, err := ReadArtifacts(store.NewMem()); err == nil {
		t.Fatal("empty store must fail")
	}
}
