package artifact

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
)

// Store is the disk tier of the artifact hierarchy: the in-memory LRU
// (internal/server.Cache) spills content-addressed artifacts here, and
// cache misses fall back to disk before recomputation. It generalizes the
// PR 2 mesh store to every artifact kind with the same durability
// contract — atomic write-then-rename (a crash mid-write never leaves a
// readable-but-corrupt file under its final name), hash/CRC-verified
// loads, startup GC of torn files. Loads are not deduplicated here: the
// server loads only inside the cache's per-key build, so a thundering herd
// of identical cold-start misses already decodes once.
//
// Files are named <class>-<sha256(key)>.art, where class is the key's
// prefix ("mesh", "op", "qop") and key is the same logical cache
// key the in-memory tier uses; the full key is stored inside the file and
// verified on load, so a renamed or cross-copied artifact is rejected
// rather than served for the wrong key.
type Store struct {
	dir string
	ctr *metrics.StoreCounters
}

// NewStore opens (creating if needed) a store rooted at dir, garbage-
// collecting leftovers of interrupted writes: stale temp files and .art
// files whose header or section table no longer parses. ctr may be nil.
func NewStore(dir string, ctr *metrics.StoreCounters) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: store: %w", err)
	}
	if ctr == nil {
		ctr = &metrics.StoreCounters{}
	}
	s := &Store{dir: dir, ctr: ctr}
	s.gc()
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Counters exposes the store telemetry.
func (s *Store) Counters() *metrics.StoreCounters { return s.ctr }

// KeyClass returns the artifact class of a logical key: its prefix up to
// the first ':' ("op", "qop", "mesh", ...).
func KeyClass(key string) string {
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return "misc"
}

// Path returns the file a key is (or would be) stored at.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%s-%x.art", KeyClass(key), sum))
}

// Has reports whether an artifact for key is on disk (existence only; the
// load path still verifies integrity).
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// gc removes leftovers a crash may have stranded: temp files (a rename
// never happened, the content is unfinished by definition) and .art files
// whose header or section table fails to parse (truncated out-of-band,
// e.g. by a full disk or manual tampering). Payload CRCs are deliberately
// not scanned here — that would read every byte of a possibly large store
// on every boot; payload integrity is verified per load instead.
func (s *Store) gc() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		switch {
		case strings.HasSuffix(e.Name(), ".tmp"):
			if os.Remove(path) == nil {
				s.ctr.TornFilesGCd.Add(1)
			}
		case strings.HasSuffix(e.Name(), ".art"):
			if err := quickCheck(path); err != nil {
				if os.Remove(path) == nil {
					s.ctr.TornFilesGCd.Add(1)
				}
			}
		}
	}
}

// quickCheck parses header and section table only.
func quickCheck(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	_, err = Parse(f, fi.Size())
	return err
}

// put writes one artifact atomically: encode to a temp file in the same
// directory, fsync, rename into place. Saving the same key twice is an
// idempotent overwrite.
func (s *Store) put(key string, encode func(io.Writer) (int64, error)) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		s.ctr.WriteErrors.Add(1)
		return fmt.Errorf("artifact: store put: %w", err)
	}
	defer os.Remove(tmp.Name())
	n, err := encode(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.Path(key))
	}
	if err != nil {
		s.ctr.WriteErrors.Add(1)
		return fmt.Errorf("artifact: store put %s: %w", KeyClass(key), err)
	}
	s.ctr.Writes.Add(1)
	s.ctr.BytesWritten.Add(uint64(n))
	return nil
}

// rejectCorrupt deletes an artifact that failed verification so the next
// miss recomputes instead of re-tripping on the same bad file, and counts
// the rejection. Non-structural errors (missing file, I/O) leave the file
// alone.
func (s *Store) rejectCorrupt(key string, err error) {
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrKeyMismatch) ||
		errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) {
		_ = os.Remove(s.Path(key))
		s.ctr.CorruptRejected.Add(1)
	}
}

// meshKey is the logical store key of a mesh with the given content hash.
func meshKey(id string) string { return "mesh:" + id }

// SaveMesh persists m keyed by its content hash and returns the id. A mesh
// already on disk is not written again (a load deletes a corrupt copy).
func (s *Store) SaveMesh(m *mesh.Mesh) (string, error) {
	id := m.ContentHash()
	if s.Has(meshKey(id)) {
		return id, nil
	}
	err := s.put(meshKey(id), func(w io.Writer) (int64, error) {
		return EncodeMesh(w, meshKey(id), m)
	})
	return id, err
}

// load opens the artifact stored under key and hands it to decode,
// counting a disk hit or miss. A file that fails verification is deleted.
func (s *Store) load(key string, decode func(f *os.File, size int64) error) error {
	err := func() error {
		f, err := os.Open(s.Path(key))
		if err != nil {
			return err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		return decode(f, fi.Size())
	}()
	if err != nil {
		s.ctr.DiskMisses.Add(1)
		s.rejectCorrupt(key, err)
		return fmt.Errorf("artifact: store load %s: %w", KeyClass(key), err)
	}
	s.ctr.DiskHits.Add(1)
	return nil
}

// LoadMesh reads the mesh with the given content hash, verifying CRCs,
// the stored key, and — because meshes are content-addressed — that the
// decoded geometry actually hashes to id: bit rot below CRC granularity or
// manual tampering is an error, never a silently wrong mesh.
func (s *Store) LoadMesh(id string) (*mesh.Mesh, error) {
	var m *mesh.Mesh
	err := s.load(meshKey(id), func(f *os.File, size int64) error {
		c, err := Parse(f, size)
		if err == nil {
			m, err = c.DecodeMesh(meshKey(id))
		}
		if err == nil && m.ContentHash() != id {
			err = fmt.Errorf("%w: mesh content hash is %s", ErrKeyMismatch, m.ContentHash())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// SaveOperator persists an assembled operator under key (the same logical
// key the in-memory tier uses, e.g. "op:<mesh>/p2/g4/periodic").
func (s *Store) SaveOperator(key string, op *operator.Operator) error {
	return s.put(key, func(w io.Writer) (int64, error) {
		return EncodeOperator(w, key, op)
	})
}

// LoadOperator loads the operator stored under key. With mapped=true the
// operator arrays alias a read-only memory mapping (zero-copy; falls back to
// the portable decode where mmap is unavailable); the second return
// reports which path was taken. Integrity (CRCs + key) is always verified
// before the operator is returned, and corrupt files are deleted so the
// caller's re-assembly replaces them.
func (s *Store) LoadOperator(key string, mapped bool) (*operator.Operator, bool, error) {
	var (
		op     *operator.Operator
		viaMap bool
	)
	err := s.load(key, func(f *os.File, size int64) (err error) {
		op, viaMap, err = readOperator(f, size, key, mapped)
		return err
	})
	return op, viaMap, err
}
