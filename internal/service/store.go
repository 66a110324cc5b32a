package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the disk tier under the in-memory mechanism cache. The
// Store holds encoded artifacts (artifact.go) keyed by canonical Spec
// ID; the build pipeline consults it before solving (read-through) and
// persists every successful build to it in the background
// (write-behind). The contract is strictly best-effort: a missing,
// slow, or corrupt store degrades to a normal solve, never to an error
// the client sees.

// ErrArtifactNotFound reports that a store holds no artifact for the
// requested Spec ID. It is the one store error the read-through path
// treats as a plain miss rather than a reason to quarantine.
var ErrArtifactNotFound = errors.New("service: artifact not found in store")

// Store is a persistent artifact tier keyed by canonical Spec ID (the
// exact token Spec.ID returns — letters, digits, and ":=+.-" only).
// Implementations must be safe for concurrent use. Get returns the
// encoded artifact bytes or ErrArtifactNotFound; Put must be atomic
// (readers never observe a half-written artifact); Delete is
// idempotent; List returns the stored IDs in unspecified order.
type Store interface {
	Get(id string) ([]byte, error)
	Put(id string, data []byte) error
	Delete(id string) error
	List() ([]string, error)
}

// Quarantiner is an optional Store extension: when the service reads an
// artifact that fails to decode or verify, it quarantines the entry —
// moves it aside rather than deleting it — so the corruption stays
// available for forensics while the ID becomes a clean miss. Stores
// without the extension fall back to Delete.
type Quarantiner interface {
	Quarantine(id string) error
}

// FSStore is the filesystem Store: one file per artifact,
// <spec-id>.pca under a flat directory. Writes go through a temp file,
// fsync, and rename, so concurrent readers and a crash mid-Put can
// only ever observe the old artifact or the complete new one.
// Quarantined artifacts are renamed to <spec-id>.pca.corrupt.
//
// One process per store directory: a daemon owns its store while it
// runs. Other processes may open the directory to read, but only the
// owner may Put, and ReapTemps runs in the owner at start-up, before
// it serves, when no Put can be in flight.
type FSStore struct {
	dir string
}

const (
	fsArtifactSuffix   = ".pca"
	fsQuarantineSuffix = ".pca.corrupt"
	fsTempPrefix       = ".put-"
)

// NewFSStore opens (creating if needed) dir as an artifact store.
func NewFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, errors.New("service: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create store directory: %w", err)
	}
	return &FSStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FSStore) Dir() string { return s.dir }

// checkID rejects IDs that could escape the store directory or collide
// with the store's own bookkeeping names. Canonical Spec IDs always
// pass (":=+.-" and alphanumerics only); the check is defense in depth
// for stores fed by other code paths.
func (s *FSStore) checkID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("service: invalid store ID %q", id)
	}
	return nil
}

func (s *FSStore) path(id string) string {
	return filepath.Join(s.dir, id+fsArtifactSuffix)
}

// Get returns the stored artifact bytes for id, or ErrArtifactNotFound.
func (s *FSStore) Get(id string) ([]byte, error) {
	if err := s.checkID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrArtifactNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("service: read artifact %s: %w", id, err)
	}
	return data, nil
}

// Put atomically replaces the stored artifact for id: the bytes are
// written to a temp file in the same directory, fsynced, and renamed
// into place, then the directory is fsynced so the entry survives a
// crash. The temp file is removed only when a step before the rename
// fails.
func (s *FSStore) Put(id string, data []byte) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, fsTempPrefix+"*")
	if err != nil {
		return fmt.Errorf("service: stage artifact %s: %w", id, err)
	}
	published := false
	defer func() {
		if !published {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("service: write artifact %s: %w", id, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: sync artifact %s: %w", id, err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("service: chmod artifact %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("service: close artifact %s: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		return fmt.Errorf("service: publish artifact %s: %w", id, err)
	}
	published = true
	return s.syncDir()
}

// ReapTemps removes the temp files Puts staged and never renamed — left
// behind when a process died between staging and publishing — and
// returns how many it removed. Artifacts and quarantined copies are
// untouched. It must not run while another process may Put into the
// directory: an in-flight Put's temp file looks the same as a dead
// one's. privcountd calls it once at start-up; NewFSStore does not,
// because tools open a live daemon's store to read it.
func (s *FSStore) ReapTemps() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("service: reap store temp files: %w", err)
	}
	removed := 0
	var errs []error
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), fsTempPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, fmt.Errorf("service: reap store temp file %s: %w", e.Name(), err))
			continue
		}
		removed++
	}
	return removed, errors.Join(errs...)
}

// Delete removes the stored artifact for id; a missing artifact is not
// an error.
func (s *FSStore) Delete(id string) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if err := os.Remove(s.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("service: delete artifact %s: %w", id, err)
	}
	return nil
}

// Quarantine moves a corrupt artifact aside to <id>.pca.corrupt
// (replacing any earlier quarantined copy), so subsequent Gets miss
// cleanly while the bytes remain on disk for inspection.
func (s *FSStore) Quarantine(id string) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	err := os.Rename(s.path(id), filepath.Join(s.dir, id+fsQuarantineSuffix))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("service: quarantine artifact %s: %w", id, err)
	}
	return nil
}

// List returns the Spec IDs with a stored artifact, sorted, skipping
// temp files, quarantined artifacts, and anything else that is not a
// well-formed entry.
func (s *FSStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: list store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, fsArtifactSuffix) ||
			strings.HasSuffix(name, fsQuarantineSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, fsArtifactSuffix)
		if s.checkID(id) == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func (s *FSStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("service: sync store directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("service: sync store directory: %w", err)
	}
	return nil
}
