package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// TestPackWarmsServerStore: a store packed offline answers a fresh
// server's operator job from disk, with no assembly.
func TestPackWarmsServerStore(t *testing.T) {
	dir := t.TempDir()
	m := mesh.Structured(4)
	var buf bytes.Buffer
	if err := mesh.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	meshPath, store := filepath.Join(dir, "mesh.json"), filepath.Join(dir, "store")
	if err := os.WriteFile(meshPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pack([]string{"-mesh", meshPath, "-store", store, "-p", "1", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{Workers: 1, EvalWorkers: 1, StoreDir: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, _ := json.Marshal(server.JobSpec{MeshID: m.ContentHash(), Scheme: "operator", P: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(60 * time.Second); st.State != server.StateDone; time.Sleep(5 * time.Millisecond) {
		if st.State == server.StateFailed || time.Now().After(deadline) {
			t.Fatalf("operator job on the packed store: state %s err %q", st.State, st.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Contains(st.CacheHits, "operator-disk") {
		t.Errorf("operator job on the packed store: cache_hits %v, want operator-disk", st.CacheHits)
	}
}
