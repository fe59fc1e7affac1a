package server

import (
	"context"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
)

// runOperatorJob submits one operator-scheme job, waits for it, and returns
// its cache-hit tags and solution.
func runOperatorJob(t *testing.T, ts *httptest.Server, meshID string) ([]string, []float64) {
	t.Helper()
	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "operator", P: 2, Field: "sincos"})
	if code != 202 {
		t.Fatalf("submit: status %d", code)
	}
	done := waitJob(t, ts, st.ID, 60*time.Second)
	if done.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, done.State, done.Error)
	}
	return done.CacheHits, getSolution(t, ts.URL, st.ID)
}

// TestColdStartServesOperatorFromDisk is the restart acceptance scenario:
// incarnation one uploads a mesh and assembles an operator (written through
// to the store); incarnation two, on the same directories with a cold
// cache, must serve the same job from the disk artifact — reporting
// "operator-disk", never re-assembling — with an identical solution.
func TestColdStartServesOperatorFromDisk(t *testing.T) {
	dir := t.TempDir()
	m := mesh.Structured(6)
	cfg := Config{Workers: 2, EvalWorkers: 2, StateDir: dir}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// StateDir alone roots the store at <StateDir>/store.
	if got, want := srv1.arts.Store().Dir(), filepath.Join(dir, "store"); got != want {
		t.Fatalf("store dir = %q, want %q", got, want)
	}
	ts1 := httptest.NewServer(srv1)
	meshID := uploadMesh(t, ts1, m)
	hits, want := runOperatorJob(t, ts1, meshID)
	if slices.Contains(hits, "operator") || slices.Contains(hits, "operator-disk") {
		t.Fatalf("first-ever operator job reported warm hits: %v", hits)
	}
	opKey := OpKey(meshID, 2, 4, 0) // normalized grid degree 2P, periodic
	if !srv1.arts.Store().Has(opKey) {
		t.Fatalf("assembled operator %q not written through to the store", opKey)
	}
	stopTestServer(t, srv1, ts1)

	// Incarnation two: cold cache, same disk state.
	srv2, ts2 := newTestServer(t, cfg)
	hits, got := runOperatorJob(t, ts2, meshID)
	if !slices.Contains(hits, "operator-disk") {
		t.Fatalf("restarted operator job hits = %v, want operator-disk", hits)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points after restart vs %d before", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12 {
			t.Fatalf("point %d: %v after restart vs %v before (diff %.3e)", i, got[i], want[i], d)
		}
	}
	if hit := srv2.arts.Store().Counters().DiskHits.Load(); hit < 1 {
		t.Errorf("disk hits = %d, want >= 1", hit)
	}

	// The metrics endpoint exposes the store and per-class cache accounting.
	var metrics struct {
		Store struct {
			DiskHits uint64 `json:"disk_hits"`
		} `json:"store"`
		CacheClasses map[string]ClassStats `json:"cache_classes"`
	}
	if code := getJSON(t, ts2.URL+"/debug/metrics", &metrics); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics.Store.DiskHits < 1 {
		t.Error("metrics store.disk_hits < 1 after a disk-served job")
	}
	op, ok := metrics.CacheClasses["op"]
	if !ok || op.Bytes <= 0 || op.Entries != 1 {
		t.Errorf("cache_classes[op] = %+v, want 1 resident entry with bytes > 0", op)
	}
}

// TestStoreDirWithoutStateDir: -store-dir alone enables artifact
// persistence (warm restarts) without journaling, and an explicit StoreDir
// wins over the StateDir default.
func TestStoreDirWithoutStateDir(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "artifacts")
	cfg := Config{Workers: 1, EvalWorkers: 1, StoreDir: storeDir}

	srv1, ts1 := newTestServer(t, cfg)
	if srv1.journal != nil {
		t.Fatal("StoreDir alone opened a journal")
	}
	if got := srv1.arts.Store().Dir(); got != storeDir {
		t.Fatalf("store dir = %q, want %q", got, storeDir)
	}
	meshID := uploadMesh(t, ts1, mesh.Structured(4))
	_, want := runOperatorJob(t, ts1, meshID)

	srv2, ts2 := newTestServer(t, Config{Workers: 1, EvalWorkers: 1,
		StoreDir: storeDir, StateDir: t.TempDir()})
	// Explicit StoreDir beats the <StateDir>/store default.
	if got := srv2.arts.Store().Dir(); got != storeDir {
		t.Fatalf("store dir = %q, want explicit %q", got, storeDir)
	}
	hits, got := runOperatorJob(t, ts2, meshID)
	if !slices.Contains(hits, "operator-disk") {
		t.Fatalf("hits = %v, want operator-disk", hits)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12 {
			t.Fatalf("point %d differs by %.3e across incarnations", i, d)
		}
	}
}

// stopTestServer shuts one incarnation down so the next can open the same
// directories.
func stopTestServer(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyOperatorFileSelfRepairs pins the upgrade path for operator
// files in a retired format (version 2, version 3 — the last format with
// weights stored in place — and version 4, the last to record assembly
// provenance): whether the file is already in the store when
// the server boots or appears under a running one, the operator job
// re-assembles (never reporting a disk hit), agrees with direct evaluation,
// leaves a current-format file behind, and the next cold start serves that
// file from disk bit for bit.
func TestLegacyOperatorFileSelfRepairs(t *testing.T) {
	m := mesh.Structured(6)
	f := dg.Project(m, 2, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.RunPerPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	fileVersion := func(path string) uint16 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint16(data[4:6])
	}

	for _, c := range []struct {
		version    uint16
		beforeBoot bool
	}{{2, true}, {3, true}, {3, false}, {4, true}} {
		beforeBoot := c.beforeBoot
		cfg := Config{Workers: 1, EvalWorkers: 2, StoreDir: t.TempDir()}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		meshID := uploadMesh(t, ts, m)
		runOperatorJob(t, ts, meshID)
		path := srv.arts.Store().Path(OpKey(meshID, 2, 4, core.Periodic))
		stopTestServer(t, srv, ts)

		// A saved file with its header version rewritten is enough: the
		// version gate never looks further.
		legacy, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(legacy[4:6], c.version)
		if beforeBoot {
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if srv, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(srv)
		if !beforeBoot {
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		hits, repaired := runOperatorJob(t, ts, meshID)
		if slices.Contains(hits, "operator-disk") || slices.Contains(hits, "operator") {
			t.Fatalf("v%d beforeBoot=%v: job over a legacy file reported warm hits %v", c.version, beforeBoot, hits)
		}
		if len(repaired) != len(direct.Solution) {
			t.Fatalf("v%d beforeBoot=%v: %d points, want %d", c.version, beforeBoot, len(repaired), len(direct.Solution))
		}
		for i, want := range direct.Solution {
			if d := math.Abs(repaired[i] - want); d > 1e-12 {
				t.Fatalf("v%d beforeBoot=%v: point %d: repaired operator %v vs RunPerPoint %v (diff %.3e)", c.version, beforeBoot, i, repaired[i], want, d)
			}
		}
		if v := fileVersion(path); v != artifact.VersionOperator {
			t.Fatalf("v%d beforeBoot=%v: file on disk is v%d after the job, want v%d", c.version, beforeBoot, v, artifact.VersionOperator)
		}
		stopTestServer(t, srv, ts)

		_, ts3 := newTestServer(t, cfg)
		hits, got := runOperatorJob(t, ts3, meshID)
		if !slices.Contains(hits, "operator-disk") {
			t.Fatalf("v%d beforeBoot=%v: cold start after repair hits = %v, want operator-disk", c.version, beforeBoot, hits)
		}
		for i := range repaired {
			if math.Float64bits(got[i]) != math.Float64bits(repaired[i]) {
				t.Fatalf("v%d beforeBoot=%v: point %d: %v from disk vs %v re-assembled", c.version, beforeBoot, i, got[i], repaired[i])
			}
		}
	}
}

// TestDiskOperatorUsesThisServersEvalWorkers: an operator file records no
// worker count. An operator packed with 7 workers and loaded by a server
// configured for 2 must apply with 2 — and produce the same bits.
func TestDiskOperatorUsesThisServersEvalWorkers(t *testing.T) {
	store, err := artifact.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(evalWorkers int, meshID string, m *mesh.Mesh) (*core.Evaluator, *Artifacts) {
		arts := NewArtifacts(NewCache(1<<30), evalWorkers)
		arts.SetStore(store)
		if m == nil {
			var ok bool
			if m, ok = arts.Mesh(meshID); !ok {
				t.Fatal("mesh not in the store")
			}
		} else if _, err := arts.PutMesh(m); err != nil {
			t.Fatal(err)
		}
		ev, _, err := arts.Evaluator(m, meshID, 2, 0, core.Periodic, "sincos")
		if err != nil {
			t.Fatal(err)
		}
		return ev, arts
	}
	m := mesh.Structured(6)
	meshID := m.ContentHash()

	ev, writer := resolve(7, meshID, m)
	built, src, err := writer.Operator(ev, meshID)
	if err != nil || src != OpSrcAssembled {
		t.Fatalf("writer: src %q, err %v", src, err)
	}
	want := make([]float64, built.Rows)
	if err := built.ApplyInto(ev.Field, want); err != nil {
		t.Fatal(err)
	}
	onDisk, _, err := store.LoadOperator(OpKey(meshID, 2, ev.Opt.GridDegree, core.Periodic), false)
	if err != nil {
		t.Fatal(err)
	}
	if built.Workers != 7 || onDisk.Workers != 0 {
		t.Fatalf("premise: built with %d workers (want 7), file records %d (want none)", built.Workers, onDisk.Workers)
	}

	ev2, reader := resolve(2, meshID, nil)
	op, src, err := reader.Operator(ev2, meshID)
	if err != nil || src != OpSrcDisk {
		t.Fatalf("reader: src %q, err %v", src, err)
	}
	if op.Workers != 2 {
		t.Fatalf("disk-loaded operator applies with %d workers on a server configured for 2", op.Workers)
	}
	got := make([]float64, op.Rows)
	if err := op.ApplyInto(ev2.Field, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: %v with 2 workers vs %v with 7", i, got[i], want[i])
		}
	}
}

// TestConcurrentColdMeshLoadsOnce: a herd of cold lookups for a mesh the
// store holds decodes its file once. The disk fallback runs inside the
// cache's per-key build, the one dedupe on the load path, and every caller
// gets the same mesh. (Run under -race.)
func TestConcurrentColdMeshLoadsOnce(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := store.SaveMesh(mesh.Structured(48))
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, Config{Workers: 1, EvalWorkers: 1, StoreDir: dir})

	got := make([]*mesh.Mesh, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], _ = srv.arts.Mesh(id)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("caller %d got mesh %p, caller 0 got %p", i, m, got[0])
		}
	}
	if hits := srv.arts.Store().Counters().DiskHits.Load(); hits != 1 {
		t.Errorf("store.disk_hits = %d after 16 concurrent cold lookups, want 1", hits)
	}
}
