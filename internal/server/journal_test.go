package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/mesh"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending jobs", len(pending))
	}
	specA := JobSpec{MeshID: "aaaa", Scheme: "per-element", P: 2, Blocks: 4}
	specB := JobSpec{MeshID: "bbbb", Scheme: "per-point", P: 1, Blocks: 8}
	if err := j.Accept("job-00000001", specA); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-00000002", specB); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("job-00000001", StateDone); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only the unfinished job is pending, and compaction rewrote the
	// file to just that accept record.
	j2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].ID != "job-00000002" {
		t.Fatalf("pending = %+v, want exactly job-00000002", pending)
	}
	if !reflect.DeepEqual(pending[0].Spec, specB) {
		t.Fatalf("replayed spec %+v, want %+v", pending[0].Spec, specB)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 1 {
		t.Errorf("compacted journal has %d lines, want 1:\n%s", lines, data)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial last line; replay
// must keep everything before it and discard the torn record.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{MeshID: "cccc", Scheme: "per-point", P: 1}
	if err := j.Accept("job-00000001", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"finish","id":"job-000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].ID != "job-00000001" {
		t.Fatalf("pending after torn tail = %+v", pending)
	}
}

// TestCrashRecoveryReplaysJobs is the kill-and-restart acceptance test. It
// builds exactly the on-disk state a crashed server leaves behind — a
// persisted mesh plus journal accept records with no finishes — then starts
// a fresh server on the same state directory and requires the jobs to be
// re-enqueued under their original IDs, complete successfully from the
// disk-backed mesh (the in-memory cache starts cold), and leave an empty
// journal for the next incarnation.
func TestCrashRecoveryReplaysJobs(t *testing.T) {
	dir := t.TempDir()
	m := mesh.Structured(4)

	// Persist the mesh exactly where a server with StateDir=dir keeps its
	// artifact store, so replay can reload it after the "crash".
	store, err := artifact.NewStore(filepath.Join(dir, "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	meshID, err := store.SaveMesh(m)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-00000001", JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-00000002", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // the crash: no finish records
		t.Fatal(err)
	}

	srv := mustNew(t, Config{Workers: 2, EvalWorkers: 1, StateDir: dir})
	for _, id := range []string{"job-00000001", "job-00000002"} {
		job, ok := srv.Manager().Job(id)
		if !ok {
			t.Fatalf("job %s not replayed from journal", id)
		}
		select {
		case <-job.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("replayed job %s did not finish", id)
		}
		if st := job.Status(); st.State != StateDone {
			t.Fatalf("replayed job %s: state %s err %q", id, st.State, st.Error)
		}
	}
	if got := srv.Faults().JobsReplayed.Load(); got != 2 {
		t.Errorf("jobs replayed = %d, want 2", got)
	}

	// New submissions must not collide with replayed IDs.
	job, err := srv.Manager().Submit(JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-00000001", "job-00000002"} {
		if job.ID == id {
			t.Errorf("post-replay submission got the replayed ID %s", job.ID)
		}
	}
	<-job.Done()

	// Clean shutdown journals the finishes: the next incarnation replays
	// nothing.
	shutdownManager(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	j2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("journal still pending after clean run: %+v", pending)
	}
}

// TestReplayDropsUnrecoverableJob: a journaled job whose mesh cannot be
// recovered fails immediately (with a journaled finish) instead of being
// replayed forever.
func TestReplayDropsUnrecoverableJob(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-00000001", JobSpec{MeshID: "gone", Scheme: "per-point", P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv := mustNew(t, Config{Workers: 1, StateDir: dir})
	job, ok := srv.Manager().Job("job-00000001")
	if !ok {
		t.Fatal("dropped job not retained for status queries")
	}
	st := job.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "gone") {
		t.Fatalf("unrecoverable job state %s err %q", st.State, st.Error)
	}
	shutdownManager(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	j2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("dropped job still journaled as pending: %+v", pending)
	}
}

// TestCleanRestartReplaysNothing: Submit queues a job before it journals
// the accept, so an instant job's finish can precede its accept in the
// file. A clean shutdown still leaves nothing pending: a finish cancels a
// later accept of its id. The first id pins that order; the 200 submits
// race it.
func TestCleanRestartReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{MeshID: "m", Scheme: "per-point", P: 1, Blocks: 1}
	if err := j.Finish("job-finished-first", StateDone); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-finished-first", spec); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(nil, ManagerConfig{
		Workers:   4,
		QueueSize: 256,
		Journal:   j,
		Eval: func(context.Context, JobSpec) (*Outcome, error) {
			return &Outcome{Solutions: [][]float64{{0}}}, nil
		},
	})
	for i := 0; i < 200; i++ {
		if _, err := mgr.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("%d finished jobs pending after a clean restart, e.g. %s", len(pending), pending[0].ID)
	}
}

// TestReplayWaitsForQueueSlot: a crash with a full queue and every worker
// busy leaves QueueSize + Workers jobs pending, more than the queue holds.
// Replay waits for a slot instead of failing the overflow.
func TestReplayWaitsForQueueSlot(t *testing.T) {
	release := make(chan struct{})
	mgr := NewManager(nil, ManagerConfig{
		Workers:   2,
		QueueSize: 64,
		Eval: func(context.Context, JobSpec) (*Outcome, error) {
			<-release
			return &Outcome{Solutions: [][]float64{{0}}}, nil
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	pending := make([]PendingJob, 64+2)
	for i := range pending {
		pending[i] = PendingJob{ID: fmt.Sprintf("job-old-%08d", i+1), Spec: JobSpec{MeshID: "m", Scheme: "per-point", P: 1, Blocks: 1}}
	}
	mgr.Replay(pending, func(JobSpec) error { return nil })
	close(release)
	for _, p := range pending {
		job, ok := mgr.Job(p.ID)
		if !ok {
			t.Fatalf("job %s not replayed", p.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("replayed job %s did not finish", p.ID)
		}
		if st := job.Status(); st.State != StateDone {
			t.Fatalf("replayed job %s: state %s err %q", p.ID, st.State, st.Error)
		}
	}
	if n := mgr.faults.JobsReplayed.Load(); n != uint64(len(pending)) {
		t.Errorf("jobs_replayed = %d, want %d", n, len(pending))
	}
}

// TestMeshStoreIntegrity: a stored mesh round-trips through the artifact
// store; a file substituted with a different mesh's bytes is rejected on
// load rather than silently served for the wrong content hash.
func TestMeshStoreIntegrity(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.Structured(4)
	id, err := store.SaveMesh(m)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Has("mesh:" + id) {
		t.Fatal("saved mesh not found on disk")
	}
	got, err := store.LoadMesh(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != id {
		t.Fatalf("round-trip hash %s != %s", got.ContentHash(), id)
	}
	if _, err := store.LoadMesh("missing"); err == nil {
		t.Error("loading a missing mesh succeeded")
	}

	// Substitute the stored artifact with a different mesh saved under its
	// own key: loading id must refuse (stored key/hash belong to the other
	// mesh), and the bad file must be deleted so a re-upload repairs it.
	other := mesh.Structured(6)
	otherID, err := store.SaveMesh(other)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path("mesh:" + otherID))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("mesh:"+id), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadMesh(id); err == nil {
		t.Fatal("substituted mesh load succeeded, want key mismatch")
	}
	if store.Has("mesh:" + id) {
		t.Error("rejected artifact left on disk")
	}
	if got := store.Counters().CorruptRejected.Load(); got != 1 {
		t.Errorf("corrupt_rejected = %d, want 1", got)
	}
}

func shutdownManager(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
