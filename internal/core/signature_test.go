package core

import (
	"bytes"
	"math"
	"testing"

	"unstencil/internal/artifact"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// expectBitwiseEqual fails unless two operators are the same operator:
// equal shape and, array for array, equal RowPtr, BlockID, BlockRef, Pool
// (bit patterns, no tolerance) and Perm — so also the same value pool in
// the same order — and byte-identical artifact encodings.
func expectBitwiseEqual(t *testing.T, label string, got, want *operator.Operator) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.BasisN != want.BasisN {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)", label, got.Rows, got.Cols, got.BasisN, want.Rows, want.Cols, want.BasisN)
	}
	sameArray(t, label+": rowptr", got.RowPtr, want.RowPtr)
	sameArray(t, label+": blockid", got.BlockID, want.BlockID)
	sameArray(t, label+": blockref", got.BlockRef, want.BlockRef)
	sameArray(t, label+": pool", f64bits(got.Pool), f64bits(want.Pool))
	sameArray(t, label+": perm", got.Perm, want.Perm)
	if !bytes.Equal(encodeOperator(t, got), encodeOperator(t, want)) {
		t.Fatalf("%s: artifact encodings differ", label)
	}
}

func sameArray[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// f64bits exposes the bit patterns, so sameArray compares floats bitwise.
func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// encodeOperator encodes op as an operator artifact, exactly as the store
// writes it.
func encodeOperator(t *testing.T, op *operator.Operator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := artifact.EncodeOperator(&buf, "op:k", op); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assembleNaive is the bitwise oracle: every row integrated independently,
// nothing stamped.
func assembleNaive(t testing.TB, ev *Evaluator, pts []geom.Point) *operator.Operator {
	t.Helper()
	op, cs, err := ev.assembleOperator(pts, (*assembly).naive)
	if err != nil {
		t.Fatal(err)
	}
	if cs.RowsStamped != 0 {
		t.Fatalf("naive assembly stamped rows: %+v", cs)
	}
	return op
}

// mustAssemble runs congruence-first assembly and checks its stats
// against the operator it returned.
func mustAssemble(t *testing.T, label string, ev *Evaluator, pts []geom.Point) (*operator.Operator, CongruenceStats) {
	t.Helper()
	op, cs, err := ev.AssembleOperator(pts)
	if err != nil {
		t.Fatal(err)
	}
	if cs.RowsIntegrated+cs.RowsStamped != cs.Rows {
		t.Fatalf("%s: integrated %d + stamped %d != rows %d", label, cs.RowsIntegrated, cs.RowsStamped, cs.Rows)
	}
	if cs.Rows != op.Rows {
		t.Fatalf("%s: stats rows %d != operator rows %d", label, cs.Rows, op.Rows)
	}
	if err := op.Validate(); err != nil {
		t.Fatalf("%s: assembled operator invalid: %v", label, err)
	}
	return op, cs
}

// The tentpole property: congruence-first assembly is bitwise identical to
// naive assembly on dyadic structured meshes — at every order, boundary
// treatment, and worker count — while stamping most rows without
// quadrature.
func TestCongruentMatchesNaiveBitwiseDyadic(t *testing.T) {
	m := mesh.Structured(4)
	for _, boundary := range []Boundary{Periodic, OneSided} {
		for p := 1; p <= 3; p++ {
			ev := buildEvaluator(t, m, p, assembleTestField, Options{Boundary: boundary, Workers: 4})
			naive := assembleNaive(t, ev, nil)
			for _, workers := range []int{1, 4} {
				label := boundaryLabel(boundary) + "/P" + string(rune('0'+p)) + "/w" + string(rune('0'+workers))
				ev.Opt.Workers = workers
				cong, cs := mustAssemble(t, label, ev, nil)
				expectBitwiseEqual(t, label, cong, naive)
				// Periodic structured meshes are fully translation
				// invariant, so exact classes must form and stamp. On
				// one-sided boundaries every point of this small mesh gets
				// its own kernel shift, so rows may legitimately stay
				// singletons — bitwise identity above is the contract.
				if boundary == Periodic && cs.RowsStamped == 0 {
					t.Errorf("%s: no rows stamped on a periodic structured mesh", label)
				}
			}
		}
	}
}

func boundaryLabel(b Boundary) string {
	if b == Periodic {
		return "periodic"
	}
	return "one-sided"
}

// On a periodic structured mesh the interior is fully translation
// invariant: the stamp rate should be high (the acceptance target assumes
// >60% shared rows at P2), and the value pool should hold far fewer
// blocks than the rows reference.
func TestCongruentStampRateStructured(t *testing.T) {
	m := mesh.Structured(16)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	op, cs := mustAssemble(t, "structured-16/P2", ev, nil)
	if rate := float64(cs.RowsStamped) / float64(cs.Rows); rate < 0.6 {
		t.Errorf("stamp rate %.2f < 0.60 on periodic structured 16x16 (stamped %d of %d)", rate, cs.RowsStamped, cs.Rows)
	}
	if cs.ProbeRows == 0 || !cs.ProbeCongruent {
		t.Errorf("probe should detect congruence on a structured mesh: %+v", cs)
	}
	if unique := op.Stats().UniqueBlocks; unique*10 > len(op.BlockID) {
		t.Errorf("pool holds %d distinct blocks of %d on a structured mesh", unique, len(op.BlockID))
	}
}

// Jittered meshes break exact congruence: rows stay signature singletons
// (a hash collision would put a non-congruent member in a class, where
// certification demotes it to its own integration), keeping the result
// bitwise equal to naive assembly, and its apply bitwise equal to direct
// per-point evaluation.
func TestCongruentJitteredDemotes(t *testing.T) {
	m := mesh.JitteredStructured(6, 0.3, 1)
	for _, boundary := range []Boundary{Periodic, OneSided} {
		ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: boundary, Workers: 4})
		naive := assembleNaive(t, ev, nil)
		label := "jittered/" + boundaryLabel(boundary)
		cong, _ := mustAssemble(t, label, ev, nil)
		expectBitwiseEqual(t, label, cong, naive)

		direct, err := ev.RunPerPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, cong.Rows)
		if err := cong.ApplyInto(ev.Field, got); err != nil {
			t.Fatal(err)
		}
		sameArray(t, label+": congruent operator vs direct eval", f64bits(got), f64bits(direct.Solution))
	}
}

// On a large jittered mesh the congruence probe must detect that the
// sample has no repeated signatures and fall back to the naive schedule —
// zero classes, every row integrated, bitwise-identical output — so the
// congruence path's overhead on non-congruent meshes is the probe alone.
func TestCongruentProbeFallsBackJittered(t *testing.T) {
	m := mesh.JitteredStructured(12, 0.3, 2)
	ev := buildEvaluator(t, m, 1, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	naive := assembleNaive(t, ev, nil)
	cong, cs := mustAssemble(t, "probe-fallback", ev, nil)
	expectBitwiseEqual(t, "probe-fallback", cong, naive)
	if cs.ProbeRows == 0 {
		t.Fatalf("probe did not run on %d rows", cs.Rows)
	}
	if cs.ProbeCongruent {
		t.Errorf("probe claimed congruence on a heavily jittered mesh: %+v", cs)
	}
	if cs.Classes != 0 || cs.RowsStamped != 0 || cs.RowsIntegrated != cs.Rows {
		t.Errorf("fallback should integrate every row: %+v", cs)
	}
}

// Custom query points (non-grid positions) run through the same path.
func TestCongruentCustomPoints(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	pts := make([]geom.Point, 0, 48)
	for i := 0; i < 48; i++ {
		pts = append(pts, geom.Pt(
			math.Mod(0.17+0.61803398875*float64(i), 1),
			math.Mod(0.31+0.7548776662*float64(i), 1),
		))
	}
	naive := assembleNaive(t, ev, pts)
	cong, _ := mustAssemble(t, "custom-points", ev, pts)
	expectBitwiseEqual(t, "custom-points", cong, naive)
}

// FuzzCongruentMatchesNaive draws jittered meshes — from exact translates
// at jitter 0 to no congruence at all — and holds congruence-first
// assembly to naive assembly array for array.
func FuzzCongruentMatchesNaive(f *testing.F) {
	f.Add(0.0, int64(1))
	f.Add(1e-12, int64(2))
	f.Add(0.2, int64(3))
	f.Add(0.1, int64(4))
	f.Add(0.25, int64(5))

	f.Fuzz(func(t *testing.T, jitter float64, seed int64) {
		jitter = math.Mod(math.Abs(jitter), 0.4)
		if math.IsNaN(jitter) {
			jitter = 0
		}
		ev := buildFuzzEvaluator(t, mesh.JitteredStructured(4, jitter, seed))
		cong, _ := mustAssemble(t, "fuzz", ev, nil)
		expectBitwiseEqual(t, "fuzz", cong, assembleNaive(t, ev, nil))
	})
}

func buildFuzzEvaluator(t *testing.T, m *mesh.Mesh) *Evaluator {
	t.Helper()
	return buildEvaluator(t, m, 1, assembleTestField, Options{Boundary: Periodic, Workers: 2})
}

// The adaptive probe commits after its first stage on a structured mesh
// (sharing is everywhere in the sample) and never pays more than the final
// stage on a jittered one — the escalation is what bounds the congruence
// path's overhead on non-congruent meshes.
func TestAdaptiveProbeStages(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(16), 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	_, cs := mustAssemble(t, "structured", ev, nil)
	if !cs.ProbeCongruent {
		t.Fatalf("structured mesh probe did not detect congruence: %+v", cs)
	}
	if cs.ProbeRows != probeMinSample {
		t.Errorf("structured mesh probe hashed %d rows, want early commit at %d", cs.ProbeRows, probeMinSample)
	}

	jev := buildEvaluator(t, mesh.JitteredStructured(12, 0.3, 2), 1, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	_, jcs := mustAssemble(t, "jittered", jev, nil)
	if jcs.ProbeCongruent {
		t.Fatalf("jittered mesh probe claimed congruence: %+v", jcs)
	}
	if jcs.ProbeRows < probeMinSample || jcs.ProbeRows > probeSampleRows {
		t.Errorf("jittered mesh probe hashed %d rows, want within [%d, %d]",
			jcs.ProbeRows, probeMinSample, probeSampleRows)
	}
}

// Colliding hashes must never corrupt the output: a wrong hash can only
// misgroup rows — here every row into one class, the worst collision
// pressure there is — and bitwise certification demotes every bad
// grouping to its own integration.
func TestSignatureCachePoisonedStaysBitwise(t *testing.T) {
	m := mesh.JitteredStructured(5, 0.25, 9)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	naive := assembleNaive(t, ev, nil)
	cong, cs, err := ev.assembleOperator(nil, func(a *assembly) error {
		a.hashOverride = func(geom.Point) uint64 { return 0xdeadbeef }
		return a.congruent()
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Classes != 1 || cs.RowsDemoted == 0 {
		t.Errorf("colliding hashes did not form one demoting class: %+v", cs)
	}
	expectBitwiseEqual(t, "poisoned-hash", cong, naive)
}
