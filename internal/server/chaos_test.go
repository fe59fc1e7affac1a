package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// TestChaosJobsSurviveFaults is the acceptance chaos run: 100 jobs across
// both schemes while deterministic panic and error faults fire inside the
// tile and point-block workers. With a retry budget the process must never
// crash, every job must complete non-degraded, and every solution must match
// the fault-free reference to 1e-12 — the disjoint-write-set containment
// argument, tested end to end. Runs under -race in CI's chaos job.
func TestChaosJobsSurviveFaults(t *testing.T) {
	const (
		jobs   = 100
		blocks = 6
		seed   = 20130707 // fixed: the whole fault sequence is reproducible
	)
	m := mesh.Structured(4)

	// Fault-free references, computed directly against core.
	f := dg.Project(m, 1, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	for _, scheme := range []core.Scheme{core.PerPoint, core.PerElement} {
		res, err := ev.Run(scheme, blocks)
		if err != nil {
			t.Fatal(err)
		}
		want[scheme.String()] = res.Solution
	}

	srv, ts := newTestServer(t, Config{
		Workers:     4,
		QueueSize:   2 * jobs,
		EvalWorkers: 2,
		Retry: fault.Policy{
			Attempts: 30,
			Base:     time.Microsecond,
			Max:      50 * time.Microsecond,
		},
	})
	meshID := uploadMesh(t, ts, m)

	// Warm the artifact chain before turning on faults so the chaos run
	// exercises the evaluation pipeline, not the builders.
	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: blocks})
	if code != http.StatusAccepted {
		t.Fatalf("warmup status %d", code)
	}
	if st = waitJob(t, ts, st.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("warmup failed: %s", st.Error)
	}

	enableFaults(t, fault.Config{
		Seed: seed,
		Mode: fault.ModeMixed, // both panics and errors, chosen per decision
		Sites: map[string]float64{
			core.SitePointBlock: 0.05,
			core.SiteTile:       0.05,
		},
	})

	ids := make([]string, 0, jobs)
	schemes := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		scheme := "per-point"
		if i%2 == 1 {
			scheme = "per-element"
		}
		st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: scheme, P: 1, Blocks: blocks})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
		schemes = append(schemes, scheme)
	}

	for i, id := range ids {
		st := waitJob(t, ts, id, 120*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s (%s) under chaos: state %s err %q", id, schemes[i], st.State, st.Error)
		}
		if st.Degraded || st.Coverage != nil {
			t.Fatalf("job %s completed degraded without opting in: %+v", id, st.Coverage)
		}
		sol := getSolution(t, ts.URL, id)
		ref := want[schemes[i]]
		if len(sol) != len(ref) {
			t.Fatalf("job %s: %d points, want %d", id, len(sol), len(ref))
		}
		for p := range ref {
			if math.Abs(sol[p]-ref[p]) > 1e-12 {
				t.Fatalf("job %s: solution[%d] = %v, fault-free %v", id, p, sol[p], ref[p])
			}
		}
	}

	// The run must actually have exercised the recovery machinery.
	snap := srv.Faults()
	if snap.PanicsRecovered.Load() == 0 {
		t.Error("chaos run recovered no panics; injection did not bite")
	}
	if snap.TileRetries.Load() == 0 {
		t.Error("chaos run performed no retries; injection did not bite")
	}
	if inj := fault.Stats(); len(inj) == 0 {
		t.Error("fault stats empty under enabled injection")
	}
}

// TestChaosDegradedJob: with retry disabled and AllowPartial set, injected
// tile failures must produce a completed-but-degraded job whose coverage
// metadata is visible through the API, whose status names the uncovered
// points, and whose result holds 0 at each — the body a coordinator
// answers for the same loss.
func TestChaosDegradedJob(t *testing.T) {
	// Fine enough that two lost tiles' influence regions leave part of the
	// grid covered (on a 12-mesh they blanket all of it).
	m := mesh.Structured(16)
	srv, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 1})
	meshID := uploadMesh(t, ts, m)

	// Warm artifacts fault-free; the warm result is the reference.
	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 8})
	if code != http.StatusAccepted {
		t.Fatalf("warmup status %d", code)
	}
	if st = waitJob(t, ts, st.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("warmup failed: %s", st.Error)
	}
	ref := getSolution(t, ts.URL, st.ID)

	enableFaults(t, fault.Config{
		Seed:      7,
		Mode:      fault.ModeError,
		Sites:     map[string]float64{core.SiteTile: 1},
		MaxFaults: 2, // exactly two tiles fail, then the injector goes quiet
	})
	st, code = submitJob(t, ts, JobSpec{
		MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 8, AllowPartial: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("degraded submit status %d", code)
	}
	st = waitJob(t, ts, st.ID, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("degraded job: state %s err %q", st.State, st.Error)
	}
	if !st.Degraded || st.Coverage == nil {
		t.Fatalf("job completed without coverage metadata: %+v", st)
	}
	if n := len(st.Coverage.FailedUnits); n != 2 {
		t.Errorf("failed units = %d, want 2", n)
	}
	if st.Coverage.TotalUnits != 8 {
		t.Errorf("total units = %d, want 8", st.Coverage.TotalUnits)
	}
	if fr := st.Coverage.Fraction(); fr < 0 || fr >= 1 {
		t.Errorf("coverage fraction %v outside [0, 1)", fr)
	}
	if srv.Faults().DegradedJobs.Load() == 0 {
		t.Error("degraded completion not counted")
	}

	ev, err := core.NewEvaluator(dg.Project(m, 1, FieldFuncs["sincos"], 4), core.Options{P: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ev.NewTiling(8).UncoveredIDs(st.Coverage.FailedUnits)
	sol := getSolution(t, ts.URL, st.ID)
	if len(want) == 0 || len(want) == len(sol) {
		t.Fatalf("%d of %d points uncovered: the drill needs some of each", len(want), len(sol))
	}
	if !slices.Equal(st.UncoveredIDs, want) || st.UncoveredTruncated {
		t.Fatalf("status has %d uncovered_ids (truncated %v), the tiling says %d", len(st.UncoveredIDs), st.UncoveredTruncated, len(want))
	}
	// Uncovered points are 0, never half-summed; covered ones are exact.
	uncovered := map[int32]bool{}
	for _, pt := range want {
		uncovered[pt] = true
	}
	for pt, v := range sol {
		if uncovered[int32(pt)] {
			if v != 0 {
				t.Fatalf("uncovered point %d carries partial sum %v, want 0", pt, v)
			}
		} else if v != ref[pt] {
			t.Fatalf("covered point %d: degraded %v != fault-free %v", pt, v, ref[pt])
		}
	}
}

// TestChaosAssemblyPanicRecovered: a panic in an operator-assembly worker
// goroutine must not take the shard down. Every row of an unstructured mesh
// is integrated (nothing to stamp), so the first row the dispatcher's
// goroutines reach panics at core.assemble-row; the assembly comes back as a
// *par.PanicError, the job layer retries it whole, and the operator job
// finishes at 1e-12 agreement with direct per-point evaluation. The same
// panic under a synchronous operator query is a JSON 500, not a 422 and not
// a dead process. Both recoveries are visible in /debug/metrics.
func TestChaosAssemblyPanicRecovered(t *testing.T) {
	const site = "core.assemble-row"
	m, err := mesh.LowVariance(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := dg.Project(m, 1, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{
		Workers:     1,
		EvalWorkers: 4,
		Retry:       fault.Policy{Attempts: 3, Base: time.Microsecond, Max: 50 * time.Microsecond},
	})
	meshID := uploadMesh(t, ts, m)
	panicOnce := fault.Config{
		Seed:      20130707,
		Mode:      fault.ModePanic,
		Sites:     map[string]float64{site: 1},
		MaxFaults: 1,
	}
	recovered := func() uint64 {
		var body struct {
			Faults struct {
				PanicsRecovered uint64 `json:"panics_recovered"`
			} `json:"faults"`
		}
		if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
			t.Fatalf("/debug/metrics status %d", code)
		}
		return body.Faults.PanicsRecovered
	}

	enableFaults(t, panicOnce)
	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "operator", P: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st = waitJob(t, ts, st.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("operator job under an assembly panic: state %s err %q", st.State, st.Error)
	}
	sol := getSolution(t, ts.URL, st.ID)
	if len(sol) != len(want.Solution) {
		t.Fatalf("%d points, want %d", len(sol), len(want.Solution))
	}
	for p := range want.Solution {
		if d := math.Abs(sol[p] - want.Solution[p]); d > 1e-12 {
			t.Fatalf("solution[%d] differs from RunPerPoint by %g", p, d)
		}
	}
	if inj := fault.Stats()[site]; inj.Injected != 1 {
		t.Fatalf("site %s injected %d faults, want 1 (stats %+v)", site, inj.Injected, inj)
	}
	if got := recovered(); got != 1 {
		t.Errorf("panics_recovered = %d after the job, want 1", got)
	}

	// The query path assembles on the request goroutine's behalf: same
	// panic, answered as a 500, and the next identical query succeeds.
	enableFaults(t, panicOnce)
	query := fmt.Sprintf(`{"mesh_id":%q,"p":1,"use_operator":true,"points":[[0.3,0.4],[0.6,0.2],[0.8,0.9]]}`, meshID)
	resp, data := postQuery(t, ts, query)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("query under an assembly panic: status %d body %s, want 500", resp.StatusCode, data)
	}
	var envelope errorBody
	if err := json.Unmarshal(data, &envelope); err != nil || !strings.Contains(envelope.Error, "internal error") {
		t.Errorf("500 body %s is not the JSON internal-error envelope (%v)", data, err)
	}
	if got := recovered(); got != 2 {
		t.Errorf("panics_recovered = %d after the query, want 2", got)
	}
	if resp, data := postQuery(t, ts, query); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d body %s", resp.StatusCode, data)
	}
}

// corrupted returns a copy of op whose last block reads past the weight
// pool — an operator Validate would refuse — so an apply panics in
// whichever worker reaches that row.
func corrupted(op *operator.Operator) *operator.Operator {
	bad := *op
	bad.BlockRef = slices.Clone(op.BlockRef)
	bad.BlockRef[len(bad.BlockRef)-1] = int32(len(op.Pool)/op.BasisN) + 7
	return &bad
}

// TestChaosApplyPanicRecovered: a panic in an operator-apply worker
// goroutine (EvalWorkers 2, so the row blocks run on two goroutines) must
// not take the server down. A job over a corrupt cached operator fails as
// a panicked evaluate stage, a use_operator query over one is a counted
// JSON 500, and the server answers the next request.
func TestChaosApplyPanicRecovered(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 2})
	m := mesh.Structured(8) // 384 grid points: two apply row blocks
	meshID := uploadMesh(t, ts, m)
	ev, _, err := srv.arts.Evaluator(m, meshID, 1, 0, core.Periodic, "sincos")
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := srv.arts.Operator(ev, meshID)
	if err != nil {
		t.Fatal(err)
	}
	if op.Workers != 2 {
		t.Fatalf("operator apply workers %d, want the EvalWorkers budget 2", op.Workers)
	}
	srv.arts.cache.Put(OpKey(meshID, 1, ev.Opt.GridDegree, core.Periodic), corrupted(op), op.Bytes())
	recovered := func() uint64 {
		var body struct {
			Faults struct {
				PanicsRecovered uint64 `json:"panics_recovered"`
			} `json:"faults"`
		}
		if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
			t.Fatalf("/debug/metrics status %d", code)
		}
		return body.Faults.PanicsRecovered
	}

	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "operator", P: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st = waitJob(t, ts, st.ID, 60*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, `job panicked in stage "evaluate"`) {
		t.Fatalf("operator job over a corrupt operator: state %s err %q, want a panicked evaluate stage", st.State, st.Error)
	}
	if got := recovered(); got != 1 {
		t.Errorf("panics_recovered = %d after the job, want 1", got)
	}

	pts := make([][2]float64, 400) // two apply row blocks
	gpts := make([]geom.Point, len(pts))
	for i := range pts {
		pts[i] = [2]float64{(float64(i%20) + 0.5) / 20, (float64(i/20) + 0.5) / 20}
		gpts[i] = geom.Pt(pts[i][0], pts[i][1])
	}
	body, _ := json.Marshal(map[string]any{"mesh_id": meshID, "p": 1, "points": pts, "use_operator": true})
	if resp, data := postQuery(t, ts, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("operator query: status %d body %s", resp.StatusCode, data)
	}
	qop, src, err := srv.arts.QueryOperator(ev, meshID, gpts)
	if err != nil || src != OpSrcMemory {
		t.Fatalf("query operator not resident after the query: source %q, err %v", src, err)
	}
	srv.arts.cache.Put(queryOpKey(ev, meshID, gpts), corrupted(qop), qop.Bytes())
	resp, data := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "query operator apply") {
		t.Fatalf("query over a corrupt operator: status %d body %s, want a 500 naming the apply", resp.StatusCode, data)
	}
	if got := recovered(); got != 2 {
		t.Errorf("panics_recovered = %d after the query, want 2", got)
	}

	direct, _ := json.Marshal(map[string]any{"mesh_id": meshID, "p": 1, "points": pts})
	if resp, data := postQuery(t, ts, string(direct)); resp.StatusCode != http.StatusOK {
		t.Fatalf("direct query after the recovered panics: status %d body %s", resp.StatusCode, data)
	}
}
