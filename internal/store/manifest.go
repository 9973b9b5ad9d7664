package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// File is one manifest entry: a stored blob's path, size and content
// digest.
type File struct {
	Path   string `json:"path"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Manifest is the digest record anchoring a store's contents: the
// per-file SHA-256 digests plus the Merkle root batching them. Writers
// embed it in ManifestFile next to their own metadata (campaign seed,
// dataset sizing, ...); Verify ignores any extra fields, so every
// store kind shares one verification path.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	MerkleRoot    string `json:"merkle_root"`
	Files         []File `json:"files"`
}

// Merkle domain-separation prefixes: leaves and interior nodes hash
// into disjoint input spaces so a crafted file cannot impersonate a
// subtree.
const (
	leafPrefix = byte(0x00)
	nodePrefix = byte(0x01)
)

// leafHash digests one manifest entry: the path binds the digest to
// its location, so renames are tamper-evident, not just edits.
func leafHash(f File) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write([]byte(f.Path))
	h.Write([]byte{0})
	sum, _ := hex.DecodeString(f.SHA256)
	h.Write(sum)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// MerkleRoot batches the entries (sorted by path) into a binary Merkle
// tree and returns the hex root. Levels pair left-to-right; an odd
// trailing node is promoted unchanged — safe here because leaf and
// interior hashes live in separate domains. An empty file set hashes
// to the leaf-domain digest of nothing.
func MerkleRoot(files []File) string {
	sorted := make([]File, len(files))
	copy(sorted, files)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	level := make([][sha256.Size]byte, 0, len(sorted))
	for _, f := range sorted {
		level = append(level, leafHash(f))
	}
	if len(level) == 0 {
		return emptyRoot()
	}
	for len(level) > 1 {
		next := make([][sha256.Size]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			h := sha256.New()
			h.Write([]byte{nodePrefix})
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var n [sha256.Size]byte
			copy(n[:], h.Sum(nil))
			next = append(next, n)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return hex.EncodeToString(level[0][:])
}

// emptyRoot is the root of a fileless store: the leaf-domain hash of
// no entries.
func emptyRoot() string {
	sum := sha256.Sum256([]byte{leafPrefix})
	return hex.EncodeToString(sum[:])
}

// buildManifest digests every blob in s except ManifestFile — the
// shared implementation behind each backend's Manifest method.
func buildManifest(s Store) (*Manifest, error) {
	names, err := s.List()
	if err != nil {
		return nil, err
	}
	m := &Manifest{SchemaVersion: SchemaVersion}
	for _, name := range names {
		if name == ManifestFile {
			continue
		}
		data, err := s.Get(name)
		if err != nil {
			return nil, fmt.Errorf("store: manifest: %w", err)
		}
		sum := sha256.Sum256(data)
		m.Files = append(m.Files, File{
			Path:   name,
			Size:   int64(len(data)),
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	m.MerkleRoot = MerkleRoot(m.Files)
	return m, nil
}

// CheckSchemaVersion rejects a manifest whose schema_version predates
// SchemaVersion. Version-1 manifests (written before digests existed)
// carry nothing to verify, so no reader accepts them.
func CheckSchemaVersion(v int) error {
	if v < SchemaVersion {
		return fmt.Errorf("store: unsupported manifest schema_version %d (want %d): re-run to regenerate it", v, SchemaVersion)
	}
	return nil
}

// ReadManifest loads and parses ManifestFile from s. Extra fields
// (campaign or dataset metadata) are ignored; a manifest older than
// SchemaVersion is an error.
func ReadManifest(s Store) (*Manifest, error) {
	data, err := s.Get(ManifestFile)
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse %s: %w", ManifestFile, err)
	}
	if err := CheckSchemaVersion(m.SchemaVersion); err != nil {
		return nil, err
	}
	return &m, nil
}

// Verify checks a store against its embedded manifest: every listed
// file must exist with the recorded size and SHA-256, no unlisted
// blobs may be present (ManifestFile aside), and the recomputed
// Merkle root must match the recorded one. Any mismatch is reported
// as an error naming the offending path.
func Verify(s Store) error {
	m, err := ReadManifest(s)
	if err != nil {
		return err
	}
	names, err := s.List()
	if err != nil {
		return err
	}
	listed := make(map[string]File, len(m.Files))
	for _, f := range m.Files {
		listed[f.Path] = f
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == ManifestFile {
			continue
		}
		seen[name] = true
		want, ok := listed[name]
		if !ok {
			return fmt.Errorf("store: verify: %s present but not in manifest", name)
		}
		data, err := s.Get(name)
		if err != nil {
			return fmt.Errorf("store: verify: %w", err)
		}
		if int64(len(data)) != want.Size {
			return fmt.Errorf("store: verify: %s is %d bytes, manifest records %d", name, len(data), want.Size)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want.SHA256 {
			return fmt.Errorf("store: verify: %s digest mismatch: %s != manifest %s", name, got, want.SHA256)
		}
	}
	for _, f := range m.Files {
		if !seen[f.Path] {
			return fmt.Errorf("store: verify: %s in manifest but missing from store", f.Path)
		}
	}
	if got := MerkleRoot(m.Files); got != m.MerkleRoot {
		return fmt.Errorf("store: verify: merkle root mismatch: recomputed %s, manifest records %s", got, m.MerkleRoot)
	}
	return nil
}
