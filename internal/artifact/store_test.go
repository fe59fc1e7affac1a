package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"unstencil/internal/mesh"
)

// Save→Load round-trips an operator through the store, mapped and
// portable, and the telemetry records the traffic.
func TestStoreOperatorRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, 40, 24, 6, true)
	key := "op:abc/p2/g4/periodic"
	if st.Has(key) {
		t.Fatal("empty store claims to have the key")
	}
	if err := st.SaveOperator(key, op); err != nil {
		t.Fatal(err)
	}
	if !st.Has(key) {
		t.Fatal("saved operator not on disk")
	}
	for _, mapped := range []bool{false, true} {
		got, _, err := st.LoadOperator(key, mapped)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		sameOperator(t, got, op)
	}
	snap := st.Counters()
	if snap.Writes.Load() != 1 || snap.DiskHits.Load() != 2 || snap.BytesWritten.Load() == 0 {
		t.Errorf("writes %d, disk hits %d, bytes written %d", snap.Writes.Load(), snap.DiskHits.Load(), snap.BytesWritten.Load())
	}
	if _, _, err := st.LoadOperator("op:missing", true); err == nil {
		t.Error("loading a missing operator succeeded")
	}
}

// Startup GC removes interrupted-write leftovers — temp files and .art
// files whose header no longer parses — and leaves valid artifacts alone.
func TestStoreGCTornFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, 10, 9, 3, false)
	if err := st.SaveOperator("op:keep", op); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "op-dead.art"), []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Counters().TornFilesGCd.Load(); got != 2 {
		t.Errorf("torn files GC'd = %d, want 2", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !os.IsNotExist(err) {
		t.Error("temp file survived GC")
	}
	if _, err := os.Stat(filepath.Join(dir, "op-dead.art")); !os.IsNotExist(err) {
		t.Error("undecodable artifact survived GC")
	}
	if !st2.Has("op:keep") {
		t.Error("valid artifact did not survive GC")
	}
	if _, _, err := st2.LoadOperator("op:keep", true); err != nil {
		t.Errorf("valid artifact unreadable after GC: %v", err)
	}
}

// A payload bit flip below GC granularity is caught at load time by the
// section CRC, whichever section it is in: the CRC pass covers every
// section, the small ones the mapped loader reads through the file as well
// as the arrays it aliases. Each bad file is deleted and counted, so the
// next miss recomputes.
func TestStoreCorruptLoadRejected(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, 30, 24, 6, true)
	key := "op:bitrot"
	for i, typ := range []uint32{SecMeta, SecKey, SecRowPtr, SecBlockID, SecBlockRef, SecPool, SecPerm} {
		if err := st.SaveOperator(key, op); err != nil {
			t.Fatal(err)
		}
		path := st.Path(key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parse(data)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := c.Section(typ)
		if !ok || s.Length == 0 {
			t.Fatalf("section %d: absent or empty in the saved operator", typ)
		}
		data[s.Offset+s.Length/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.LoadOperator(key, true); !errors.Is(err, ErrCorrupt) {
			t.Errorf("section %d flipped: load error %v, want ErrCorrupt", typ, err)
		}
		if st.Has(key) {
			t.Errorf("section %d flipped: corrupt artifact left on disk", typ)
		}
		if got := st.Counters().CorruptRejected.Load(); got != uint64(i+1) {
			t.Errorf("section %d flipped: corrupt_rejected = %d, want %d", typ, got, i+1)
		}
	}
	// The rejection cleared the way: re-saving and loading works again.
	if err := st.SaveOperator(key, op); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadOperator(key, true); err != nil {
		t.Fatal(err)
	}
}

// The mapped load verifies the operator in place: loading one of several
// MB allocates under 1 % of the file, where reading each section onto the
// heap to checksum it would allocate the whole file again.
func TestMappedLoadNoHeapCopy(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("no mapped load path on this platform")
	}
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "op:large"
	if err := st.SaveOperator(key, testOperator(t, 4000, 240, 6, true)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4<<20 {
		t.Fatalf("fixture is %d bytes, want at least 4 MiB", fi.Size())
	}
	// The least of three loads, after a first that settles one-time
	// initialisation.
	least := ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op, viaMap, err := st.LoadOperator(key, true)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !viaMap {
			t.Fatal("load did not map the file")
		}
		_ = op.Backing.(*Mapping).Close()
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if limit := uint64(fi.Size()) / 100; least >= limit {
		t.Errorf("mapped load of a %d-byte operator allocates %d bytes, want < %d", fi.Size(), least, limit)
	}
}

// Concurrent loads of one key are safe and everyone gets a usable
// operator. (Run under -race.) The store does not deduplicate them; the
// server's cache does, see TestConcurrentColdMeshLoadsOnce.
func TestStoreConcurrentLoads(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, 60, 30, 6, true)
	key := "op:herd"
	if err := st.SaveOperator(key, op); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := st.LoadOperator(key, true)
			if err == nil && got.Rows != op.Rows {
				err = os.ErrInvalid
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
}

// A mesh round-trips through the store under its content hash.
func TestStoreMeshRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.Structured(3)
	id, err := st.SaveMesh(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadMesh(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != id {
		t.Fatal("mesh round trip changed the content hash")
	}
}

// A second save of a resident mesh writes nothing; once a load has
// rejected a corrupt copy, the next save writes the mesh again.
func TestStoreMeshSavedOnce(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.Structured(3)
	id, err := st.SaveMesh(m)
	if err != nil {
		t.Fatal(err)
	}
	ctr := st.Counters()
	bytes := ctr.BytesWritten.Load()
	if _, err := st.SaveMesh(m); err != nil {
		t.Fatal(err)
	}
	if w, b := ctr.Writes.Load(), ctr.BytesWritten.Load(); w != 1 || b != bytes {
		t.Fatalf("after a repeat save: writes %d, bytes_written %d; want 1 and %d", w, b, bytes)
	}

	path := st.Path(meshKey(id))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadMesh(id); err == nil {
		t.Fatal("corrupt mesh file loaded")
	}
	if _, err := st.SaveMesh(m); err != nil {
		t.Fatal(err)
	}
	if w := ctr.Writes.Load(); w != 2 {
		t.Fatalf("save after a rejected corrupt copy: writes %d, want 2", w)
	}
	if got, err := st.LoadMesh(id); err != nil || got.ContentHash() != id {
		t.Fatalf("rewritten mesh: %v", err)
	}
}

// A file of the retired field kind is not one this reader supports: Parse
// rejects it, and a store opened on a directory holding one deletes it at
// startup like any unparseable file.
func TestRetiredFieldKindRejected(t *testing.T) {
	data := retiredFieldContainer("field:abc/p2/sincos")
	if _, err := parse(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("kind 2: err = %v, want ErrVersion", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "field-abc.art")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("field file survived startup GC")
	}
	if got := st.Counters().TornFilesGCd.Load(); got != 1 {
		t.Errorf("files GC'd = %d, want 1", got)
	}
}
