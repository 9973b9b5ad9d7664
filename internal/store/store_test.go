package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// backends enumerates every Store implementation; the conformance
// suite below runs each subtest against all of them, so the two
// backends cannot drift apart behaviorally.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"fs":  NewFS(filepath.Join(t.TempDir(), "run")),
		"mem": NewMem(),
	}
}

func put(t *testing.T, s Store, name, data string) {
	t.Helper()
	if err := s.Put(name, []byte(data)); err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
}

func TestConformancePutGetListDelete(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if names, err := s.List(); err != nil || len(names) != 0 {
				t.Fatalf("fresh store should list empty, got %v, %v", names, err)
			}
			put(t, s, "rendered.txt", "hello")
			put(t, s, "csv/outcomes.csv", "a,b\n")
			put(t, s, "csv/summary.csv", "c,d\n")

			got, err := s.Get("csv/outcomes.csv")
			if err != nil || string(got) != "a,b\n" {
				t.Fatalf("get: %q, %v", got, err)
			}
			// Returned buffers must not alias store internals.
			got[0] = 'X'
			if again, _ := s.Get("csv/outcomes.csv"); string(again) != "a,b\n" {
				t.Fatalf("store buffer aliased: %q", again)
			}

			names, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"csv/outcomes.csv", "csv/summary.csv", "rendered.txt"}
			if len(names) != len(want) {
				t.Fatalf("list: %v, want %v", names, want)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("list[%d] = %s, want %s", i, names[i], want[i])
				}
			}

			// Put replaces.
			put(t, s, "rendered.txt", "replaced")
			if data, _ := s.Get("rendered.txt"); string(data) != "replaced" {
				t.Fatalf("put did not replace: %q", data)
			}

			if err := s.Delete("csv/summary.csv"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("csv/summary.csv"); err != nil {
				t.Fatalf("deleting a missing name must be a no-op: %v", err)
			}
			if _, err := s.Get("csv/summary.csv"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("get after delete: %v, want fs.ErrNotExist", err)
			}
		})
	}
}

func TestConformanceNameValidation(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "..", "../evil", "/abs", "a/../../b", `win\slash`} {
				if err := s.Put(bad, []byte("x")); err == nil {
					t.Errorf("Put(%q) accepted", bad)
				}
				if _, err := s.Get(bad); err == nil {
					t.Errorf("Get(%q) accepted", bad)
				}
			}
			// Redundant but harmless names normalize.
			put(t, s, "./csv/x.csv", "1")
			if _, err := s.Get("csv/x.csv"); err != nil {
				t.Errorf("normalized name not found: %v", err)
			}
		})
	}
}

func TestConformanceManifest(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			put(t, s, "b.txt", "bravo")
			put(t, s, "a.txt", "alpha")
			put(t, s, "csv/c.csv", "1,2\n")
			m1, err := s.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if m1.SchemaVersion != SchemaVersion {
				t.Fatalf("schema version %d, want %d", m1.SchemaVersion, SchemaVersion)
			}
			if len(m1.Files) != 3 {
				t.Fatalf("manifest files: %+v", m1.Files)
			}
			for i := 1; i < len(m1.Files); i++ {
				if m1.Files[i-1].Path >= m1.Files[i].Path {
					t.Fatalf("manifest files unsorted: %+v", m1.Files)
				}
			}

			// The manifest blob itself never digests into the manifest.
			doc, _ := json.Marshal(m1)
			put(t, s, ManifestFile, string(doc))
			m2, err := s.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if m2.MerkleRoot != m1.MerkleRoot {
				t.Fatalf("manifest self-inclusion changed root: %s vs %s", m2.MerkleRoot, m1.MerkleRoot)
			}

			// A one-byte edit moves both the file digest and the root.
			put(t, s, "a.txt", "alphA")
			m3, err := s.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if m3.MerkleRoot == m1.MerkleRoot {
				t.Fatal("root unchanged after content edit")
			}
		})
	}
}

// TestManifestRootsIdenticalAcrossBackends pins both backends (and
// any put order) to the same digests for the same logical contents.
func TestManifestRootsIdenticalAcrossBackends(t *testing.T) {
	content := map[string]string{
		"manifest-meta.txt": "m",
		"csv/outcomes.csv":  "spec,metric\n",
		"outcomes.json":     `{"seed":1}`,
	}
	var roots []string
	for name, s := range backends(t) {
		for n, d := range content { // map order varies — roots must not
			put(t, s, n, d)
		}
		m, err := s.Manifest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		roots = append(roots, m.MerkleRoot)
	}
	for i := 1; i < len(roots); i++ {
		if roots[i] != roots[0] {
			t.Fatalf("backends disagree on root: %v", roots)
		}
	}
}

func TestMerkleRootProperties(t *testing.T) {
	files := []File{
		{Path: "a", Size: 1, SHA256: "aa"},
		{Path: "b", Size: 1, SHA256: "bb"},
		{Path: "c", Size: 1, SHA256: "cc"},
	}
	root := MerkleRoot(files)
	// Order-insensitive (sorted internally).
	if MerkleRoot([]File{files[2], files[0], files[1]}) != root {
		t.Fatal("root depends on input order")
	}
	// Renames are tamper-evident even with unchanged content digests.
	renamed := []File{files[0], files[1], {Path: "c2", Size: 1, SHA256: "cc"}}
	if MerkleRoot(renamed) == root {
		t.Fatal("rename did not change root")
	}
	if MerkleRoot(nil) != MerkleRoot([]File{}) {
		t.Fatal("empty roots differ")
	}
	if MerkleRoot(nil) == root {
		t.Fatal("empty root collides")
	}
}

func writeManifest(t *testing.T, s Store) {
	t.Helper()
	m, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ManifestFile, doc); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			put(t, s, "outcomes.json", `{"seed":42}`)
			put(t, s, "csv/outcomes.csv", "spec,metric,value\n")
			writeManifest(t, s)
			if err := Verify(s); err != nil {
				t.Fatalf("clean store failed verify: %v", err)
			}

			// Content edit.
			put(t, s, "outcomes.json", `{"seed":43}`)
			if err := Verify(s); err == nil {
				t.Fatal("verify missed a content edit")
			}
			put(t, s, "outcomes.json", `{"seed":42}`)

			// Unlisted extra file.
			put(t, s, "smuggled.txt", "x")
			if err := Verify(s); err == nil {
				t.Fatal("verify missed an extra file")
			}
			if err := s.Delete("smuggled.txt"); err != nil {
				t.Fatal(err)
			}

			// Missing file.
			if err := s.Delete("csv/outcomes.csv"); err != nil {
				t.Fatal(err)
			}
			if err := Verify(s); err == nil {
				t.Fatal("verify missed a missing file")
			}
			put(t, s, "csv/outcomes.csv", "spec,metric,value\n")

			// Forged root.
			m, err := ReadManifest(s)
			if err != nil {
				t.Fatal(err)
			}
			m.MerkleRoot = "deadbeef"
			doc, _ := json.Marshal(m)
			put(t, s, ManifestFile, string(doc))
			if err := Verify(s); err == nil {
				t.Fatal("verify missed a forged root")
			}

			writeManifest(t, s)
			if err := Verify(s); err != nil {
				t.Fatalf("restored store failed verify: %v", err)
			}
		})
	}
}

func TestVerifyLegacyManifest(t *testing.T) {
	s := NewMem()
	put(t, s, "outcomes.json", "{}")
	// A v1 manifest: campaign metadata only, no digests.
	put(t, s, ManifestFile, `{"seed":42,"scale":"small","repeats":1,"specs":["T1"]}`)
	if err := Verify(s); err == nil || !strings.Contains(err.Error(), "schema_version 0") {
		t.Fatalf("verify on legacy manifest: %v, want an unsupported schema_version 0 error", err)
	}
	if m, err := ReadManifest(s); err == nil || !strings.Contains(err.Error(), "schema_version 0") || m != nil {
		t.Fatalf("read on legacy manifest: %+v, %v, want an unsupported schema_version 0 error", m, err)
	}
	put(t, s, ManifestFile, `{"schema_version":1,"merkle_root":"","files":[]}`)
	if err := Verify(s); err == nil || !strings.Contains(err.Error(), "schema_version 1") {
		t.Fatalf("verify on version-1 manifest: %v, want an unsupported schema_version 1 error", err)
	}
	if _, err := ReadManifest(NewMem()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read on empty store: %v, want fs.ErrNotExist", err)
	}
}

func TestIsSubPath(t *testing.T) {
	cases := []struct {
		prefix, name string
		want         bool
	}{
		{"", "anything", true},
		{"csv", "csv/outcomes.csv", true},
		{"csv", "csv", true},
		{"csv", "csvx", false},
		{"csv/outcomes.csv", "csv", false},
	}
	for _, c := range cases {
		if got := IsSubPath(c.prefix, c.name); got != c.want {
			t.Errorf("IsSubPath(%q, %q) = %v, want %v", c.prefix, c.name, got, c.want)
		}
	}
}
