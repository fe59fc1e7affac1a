package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/fault"
	"unstencil/internal/mesh"
)

// TestReplayPreservesPartialContract is the crash-recovery half of the
// graceful-degradation contract: a job accepted with allow_partial that
// crashed mid-stage and is replayed from the journal must keep that
// contract on the re-run — if units fail, it completes *degraded with
// coverage metadata*, never silently upgraded to a full-coverage result;
// and a replayed job without allow_partial fails outright under the same
// faults instead of fabricating coverage.
func TestReplayPreservesPartialContract(t *testing.T) {
	dir := t.TempDir()
	// 24x24: patch influence regions are ~40% of the grid, so two failed
	// patches can never blanket it — coverage stays strictly partial and
	// strictly positive, making the honesty assertions meaningful.
	m := mesh.Structured(24)
	const blocks = 8

	// Incarnation 1: persist the mesh, then die with an accepted-but-
	// unfinished allow_partial job in the journal (simulated crash
	// mid-stage: Accept written, no Finish).
	srv1 := mustNew(t, Config{Workers: 1, StateDir: dir})
	meshID := putMesh(t, srv1, m)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Manager().Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	j, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("unexpected pending jobs %v", pending)
	}
	crashed := "job-00000042"
	if err := j.Accept(crashed, JobSpec{
		MeshID: meshID, Scheme: "per-element", P: 1, Blocks: blocks, AllowPartial: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 replays the job while deterministic tile faults fire:
	// two patches exhaust their (single) attempt and must be surfaced as
	// lost coverage.
	enableFaults(t, fault.Config{
		Seed:      11,
		Mode:      fault.ModeError,
		Sites:     map[string]float64{core.SiteTile: 1},
		MaxFaults: 2,
	})
	srv2, ts := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if srv2.Faults().JobsReplayed.Load() != 1 {
		t.Fatalf("jobs replayed = %d, want 1", srv2.Faults().JobsReplayed.Load())
	}
	st := waitJob(t, ts, crashed, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("replayed allow_partial job: state %s err %q", st.State, st.Error)
	}
	if !st.Degraded || st.Coverage == nil {
		t.Fatalf("replayed job silently upgraded to full coverage: degraded=%v coverage=%+v",
			st.Degraded, st.Coverage)
	}
	cov := st.Coverage
	if len(cov.FailedUnits) != 2 || cov.TotalUnits != blocks {
		t.Fatalf("coverage units %v/%d, want 2 failed of %d", cov.FailedUnits, cov.TotalUnits, blocks)
	}
	if cov.CoveredPoints >= cov.TotalPoints || cov.CoveredPoints <= 0 {
		t.Fatalf("coverage points %d/%d not honest", cov.CoveredPoints, cov.TotalPoints)
	}
	// The result endpoint still serves the partial solution.
	if sol := getSolution(t, ts.URL, crashed); len(sol) != cov.TotalPoints {
		t.Fatalf("solution %d points, coverage says %d", len(sol), cov.TotalPoints)
	}

	// Contrast: the same faults against a job WITHOUT allow_partial must
	// fail the job, not sneak out a silently-partial answer.
	fault.Disable()
	enableFaults(t, fault.Config{
		Seed:      11,
		Mode:      fault.ModeError,
		Sites:     map[string]float64{core.SiteTile: 1},
		MaxFaults: 1,
	})
	st2, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: blocks})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st2 = waitJob(t, ts, st2.ID, 60*time.Second); st2.State != StateFailed {
		t.Fatalf("non-partial job under faults: state %s (degraded=%v), want failed",
			st2.State, st2.Degraded)
	}
}
