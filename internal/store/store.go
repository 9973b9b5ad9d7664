// Package store is the artifact layer under every campaign run
// directory: a small keyed blob store (Put/Get/List/Delete) plus a
// Merkle-batched manifest that gives each run a single root digest
// verifiable offline. Two backends ship — a filesystem store that
// preserves the historical paper_runs/<dir> layout byte for byte, and
// an in-memory store for tests and ephemeral server campaigns — and a
// conformance suite (store_test.go) pins both to the same contract.
//
// Names are slash-separated relative paths ("csv/outcomes.csv").
// Every Put fully replaces the named blob; stores never interpret
// contents except when building or verifying a manifest.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"strings"
)

// ManifestFile is the reserved manifest name inside every store. It
// records the digests of all other blobs, so it is excluded from the
// manifest it anchors.
const ManifestFile = "manifest.json"

// SchemaVersion is the current manifest schema. Version 1 directories
// (written before digests existed) carry no schema_version field, read
// back as version 0 and are rejected by every manifest reader.
const SchemaVersion = 2

// Store is a keyed artifact store. Implementations must be safe for
// concurrent use.
type Store interface {
	// Put writes data under name, replacing any previous blob.
	Put(name string, data []byte) error
	// Get returns the blob stored under name. A missing name returns
	// an error satisfying errors.Is(err, fs.ErrNotExist).
	Get(name string) ([]byte, error)
	// List returns every stored name in sorted order.
	List() ([]string, error)
	// Delete removes name. Deleting a missing name is a no-op.
	Delete(name string) error
	// Manifest digests the current contents (ManifestFile excluded)
	// into a Merkle-batched manifest.
	Manifest() (*Manifest, error)
}

// CleanName validates and normalizes a store name: slash-separated,
// relative, no traversal outside the store.
func CleanName(name string) (string, error) {
	if name == "" {
		return "", errors.New("store: empty name")
	}
	if strings.Contains(name, "\\") {
		return "", fmt.Errorf("store: name %q must use forward slashes", name)
	}
	cleaned := path.Clean(name)
	if path.IsAbs(cleaned) || cleaned == ".." || strings.HasPrefix(cleaned, "../") || cleaned == "." {
		return "", fmt.Errorf("store: name %q escapes the store", name)
	}
	return cleaned, nil
}

// notExist wraps a missing-name error so errors.Is(err, fs.ErrNotExist)
// holds across backends.
func notExist(name string) error {
	return fmt.Errorf("store: %s: %w", name, fs.ErrNotExist)
}
