package operator_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"unstencil/internal/artifact"
	"unstencil/internal/operator"
	"unstencil/internal/par"
)

// buildTiny is a hand-built 3×4 operator (basisN 2, two elements): it
// exercises the layout, the permutation plumbing, and the dimension checks
// without any mesh machinery.
func buildTiny(perm []int32) *operator.Operator {
	b := operator.NewBuilder(3, 4, 2)
	b.SetRowBlocks(0, []int32{0}, []float64{1, 2})
	b.SetRowBlocks(1, []int32{1}, []float64{3, -1})
	// row 2 left unset: a point no element contributes to.
	return b.Finish(perm, 2)
}

// synthetic builds an operator shaped like an assembled one: most rows are
// one of three stencil patterns at a random base element, a fifth are
// unique boundary-like rows, a few are empty. Pattern rows wrap around the
// element range, as periodic translates do, so a block's place in the row
// need not be its place in the pattern. share stamps every pattern row from
// the first row that used the pattern — what congruence-first assembly
// does on a structured mesh; without it the same rows are stored directly.
// jitter perturbs every pattern row by its own last-bit noise, so no two
// rows are congruent — a jittered mesh, unshared by its data.
func synthetic(rows, elems, basisN int, seed int64, share, jitter, permuted bool) *operator.Operator {
	rng := rand.New(rand.NewSource(seed))
	deltas := [][]int32{{0, 1, 3, 4}, {0, 2, 3, 5, 6, 7}, {0, 1, 2}}
	patterns := make([][]float64, len(deltas))
	for p := range patterns {
		patterns[p] = make([]float64, len(deltas[p])*basisN)
		for i := range patterns[p] {
			mag := math.Ldexp(rng.Float64(), rng.Intn(20)-10)
			if i%2 == 0 {
				mag = -mag
			}
			patterns[p][i] = mag
		}
	}
	// first[p] is the row stamps of pattern p reference, and the block of
	// that row holding each pattern block.
	type source struct {
		row int
		pos []int32
	}
	first := make([]*source, len(deltas))
	b := operator.NewBuilder(rows, elems*basisN, basisN)
	for r := 0; r < rows; r++ {
		e0 := int32(rng.Intn(elems))
		switch {
		case rng.Intn(19) == 0:
			// empty row
		case rng.Intn(5) == 0:
			v := make([]float64, 2*basisN)
			for i := range v {
				v[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(30)-15)
			}
			e := e0 % int32(elems-1)
			b.SetRowBlocks(r, []int32{e, e + 1}, v)
		default:
			p := rng.Intn(len(deltas))
			ids, slots := wrapped(deltas[p], e0, int32(elems))
			if share && first[p] != nil {
				for j, k := range slots {
					slots[j] = first[p].pos[k]
				}
				b.SetRowStamp(r, ids, first[p].row, slots)
				continue
			}
			v := make([]float64, 0, len(ids)*basisN)
			for _, k := range slots {
				v = append(v, patterns[p][int(k)*basisN:][:basisN]...)
			}
			if jitter {
				for i := range v {
					v[i] *= 1 + float64(rng.Intn(1<<20))*0x1p-52
				}
			}
			if first[p] == nil {
				first[p] = &source{row: r, pos: make([]int32, len(slots))}
				for j, k := range slots {
					first[p].pos[k] = int32(j)
				}
			}
			b.SetRowBlocks(r, ids, v)
		}
	}
	var perm []int32
	if permuted {
		for _, v := range rng.Perm(rows) {
			perm = append(perm, int32(v))
		}
	}
	return b.Finish(perm, 2)
}

// wrapped places a pattern at base element e0 on a periodic range of n
// elements: the ascending element ids, and for each the pattern block it
// takes.
func wrapped(deltas []int32, e0, n int32) (ids, slots []int32) {
	for k, d := range deltas {
		ids = append(ids, (e0+d)%n)
		slots = append(slots, int32(k))
		for j := len(ids) - 1; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	return ids, slots
}

func randFields(cols, nf int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	fs := make([][]float64, nf)
	for f := range fs {
		fs[f] = make([]float64, cols)
		for c := range fs[f] {
			fs[f][c] = math.Ldexp(rng.Float64()-0.5, rng.Intn(20)-10)
		}
	}
	return fs
}

func mkVecs(n, ln int) [][]float64 {
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, ln)
	}
	return v
}

// referenceApply is the naive apply the kernels are held against: expand
// every logical row through the exported accessor, take each element
// block's plain dot with modes ascending, and sum the block partials in
// storage order by the textbook Neumaier recurrence (the branchy select
// form), one field, one goroutine.
func referenceApply(op *operator.Operator, coeffs []float64) []float64 {
	out := make([]float64, op.Rows)
	var elems []int32
	var vals []float64
	for r := 0; r < op.Rows; r++ {
		elems, vals = op.Row(r, elems, vals)
		sum, comp := 0.0, 0.0
		for k, e := range elems {
			w, c := vals[k*op.BasisN:][:op.BasisN], coeffs[int(e)*op.BasisN:][:op.BasisN]
			d := w[0] * c[0]
			for m := 1; m < op.BasisN; m++ {
				d += w[m] * c[m]
			}
			t := sum + d
			if math.Abs(sum) >= math.Abs(d) {
				comp += (sum - t) + d
			} else {
				comp += (d - t) + sum
			}
			sum = t
		}
		pt := r
		if op.Perm != nil {
			pt = int(op.Perm[r])
		}
		out[pt] = sum + comp
	}
	return out
}

// mapped round-trips op through an artifact store and returns the
// mmap-backed load (the portable decode where mmap is unavailable).
func mapped(t *testing.T, op *operator.Operator) *operator.Operator {
	t.Helper()
	st, err := artifact.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveOperator("op:k", op); err != nil {
		t.Fatal(err)
	}
	mop, _, err := st.LoadOperator("op:k", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if m, ok := mop.Backing.(*artifact.Mapping); ok {
			_ = m.Close()
		}
	})
	return mop
}

// edgeCases is a hand-built 5-row operator (basisN 3, five elements) whose
// rows sit on the corners of the compensation update, with fields to match:
// element 0 holds signed zeros, elements 1 and 2 hold ones, element 3
// cycles NaN, +Inf and -Inf through its middle mode from field to field,
// and element 4 is ordinary.
func edgeCases() (*operator.Operator, func(nf int) [][]float64) {
	nz := math.Copysign(0, -1)
	b := operator.NewBuilder(5, 15, 3)
	// All-zero row: stored zero weights, not an empty row.
	b.SetRowBlocks(0, []int32{1, 2}, make([]float64, 6))
	// Signed-zero weights against signed-zero coefficients: -0.0 terms.
	b.SetRowBlocks(1, []int32{0, 1}, []float64{nz, nz, 0, nz, 0, nz})
	// Exactly cancelling terms spanning 16 decades, around an ordinary
	// block.
	b.SetRowBlocks(2, []int32{1, 2, 4}, []float64{1e8, 1e-8, 1e4, -1e-8, -1e4, -1e8, 0.25, -3, 1e-3})
	// A non-finite coefficient times nonzero weights.
	b.SetRowBlocks(3, []int32{3, 4}, []float64{1, -2, 0.5, 1, 1, 1})
	// A non-finite coefficient times a zero weight.
	b.SetRowBlocks(4, []int32{1, 3}, []float64{1, 1, 1, 0, 0, 0})
	op := b.Finish([]int32{3, 0, 4, 1, 2}, 2)
	fields := func(nf int) [][]float64 {
		nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		fs := make([][]float64, nf)
		for f := range fs {
			fs[f] = []float64{nz, 0, nz, 1, 1, 1, 1, 1, 1, 1, nonFinite[f%3], 1, 0.5, float64(f) - 3, 7}
		}
		return fs
	}
	return op, fields
}

// TestApplyBlockBitIdentical is the one apply property: over shared and
// unshared-by-data operators and the edge-case rows, heap-built and
// mmap-loaded, at every worker count and field width (a narrow tile, a
// zero-padded wide tile, a full one, a full one plus a narrow or a padded
// tile, and two full ones), ApplyBlock equals F independent ApplyVec
// calls bitwise, and both equal the naive reference apply bitwise, as does
// RowDot over every stored row (the per-point paths' reduction). A
// non-finite reference output must be NaN in all of them.
func TestApplyBlockBitIdentical(t *testing.T) {
	type fixture struct {
		name   string
		op     *operator.Operator
		fields func(nf int) [][]float64
	}
	var fixtures []fixture
	for _, shared := range []bool{true, false} {
		op := synthetic(1500, 150, 3, 42, shared, !shared, true)
		if unique := op.Stats().UniqueBlocks; (unique < len(op.BlockID)/2) != shared {
			t.Fatalf("shared=%v fixture has %d unique blocks of %d", shared, unique, len(op.BlockID))
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("shared=%v", shared), op,
			func(nf int) [][]float64 { return randFields(op.Cols, nf, int64(nf)*7+1) }})
	}
	edge, edgeFields := edgeCases()
	fixtures = append(fixtures, fixture{"edge", edge, edgeFields})

	for _, fx := range fixtures {
		for load, op := range map[string]*operator.Operator{"heap": fx.op, "mmap": mapped(t, fx.op)} {
			for _, nf := range []int{1, 3, 6, 8, 9, 13, 16} {
				coeffs := fx.fields(nf)
				want := make([][]float64, nf)
				var elems []int32
				var vals []float64
				for f := range want {
					want[f] = referenceApply(op, coeffs[f])
					for r := 0; r < op.Rows; r++ {
						elems, vals = op.Row(r, elems, vals)
						pt := r
						if op.Perm != nil {
							pt = int(op.Perm[r])
						}
						got, w := operator.RowDot(elems, vals, coeffs[f]), want[f][pt]
						if math.Float64bits(got) != math.Float64bits(w) && !(math.IsNaN(got) && (math.IsNaN(w) || math.IsInf(w, 0))) {
							t.Fatalf("%s %s field %d row %d: RowDot %x, reference %x",
								fx.name, load, f, r, math.Float64bits(got), math.Float64bits(w))
						}
					}
				}
				for _, workers := range []int{1, 2, 5} {
					vec, blk := mkVecs(nf, op.Rows), mkVecs(nf, op.Rows)
					for f := range vec {
						if err := op.ApplyVec(coeffs[f], vec[f], workers); err != nil {
							t.Fatal(err)
						}
					}
					if err := op.ApplyBlock(coeffs, blk, workers); err != nil {
						t.Fatal(err)
					}
					for f := range want {
						for i, w := range want[f] {
							v, b := vec[f][i], blk[f][i]
							same := math.Float64bits(v) == math.Float64bits(w) && math.Float64bits(b) == math.Float64bits(w)
							if math.IsNaN(w) || math.IsInf(w, 0) {
								same = math.IsNaN(w) && math.IsNaN(v) && math.IsNaN(b)
							}
							if !same {
								t.Fatalf("%s %s nf=%d workers=%d field %d point %d: ApplyVec %x, ApplyBlock %x, reference %x",
									fx.name, load, nf, workers, f, i,
									math.Float64bits(v), math.Float64bits(b), math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

func TestBuilderFinish(t *testing.T) {
	op := buildTiny(nil)
	if op.NNZ() != 4 {
		t.Fatalf("nnz = %d", op.NNZ())
	}
	for i, want := range []int64{0, 1, 2, 2} {
		if op.RowPtr[i] != want {
			t.Fatalf("rowptr = %v", op.RowPtr)
		}
	}
	if len(op.BlockID) != 2 || op.BlockID[0] != 0 || op.BlockID[1] != 1 {
		t.Fatalf("block ids = %v", op.BlockID)
	}
	if len(op.BlockRef) != 2 || op.BlockRef[0] != 0 || op.BlockRef[1] != 1 || len(op.Pool) != 4 {
		t.Fatalf("block refs = %v, pool = %v", op.BlockRef, op.Pool)
	}
	if err := op.Validate(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	if err := op.ApplyVec([]float64{1, 1, 1, 1}, out, 1); err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 2 || out[2] != 0 {
		t.Fatalf("out = %v", out)
	}
	if op.Workers != 2 {
		t.Errorf("workers = %d, want the Finish argument 2", op.Workers)
	}
	st := op.Stats()
	if st.NNZPerRow <= 1.33 || st.NNZPerRow >= 1.34 {
		t.Errorf("nnz/row = %v", st.NNZPerRow)
	}
}

func TestPermRoutesOutput(t *testing.T) {
	// Storage row 0 computes point 2, row 1 point 0, row 2 point 1.
	op := buildTiny([]int32{2, 0, 1})
	out := make([]float64, 3)
	if err := op.ApplyVec([]float64{1, 1, 1, 1}, out, 1); err != nil {
		t.Fatal(err)
	}
	if out[2] != 3 || out[0] != 2 || out[1] != 0 {
		t.Fatalf("permuted out = %v", out)
	}
}

func TestApplyVecDimensionChecks(t *testing.T) {
	op := buildTiny(nil)
	if err := op.ApplyVec(make([]float64, 3), make([]float64, 3), 1); err == nil {
		t.Error("short coefficients accepted")
	}
	if err := op.ApplyVec(make([]float64, 4), make([]float64, 2), 1); err == nil {
		t.Error("short output accepted")
	}
}

func TestApplyBlockDimensionChecks(t *testing.T) {
	op := synthetic(40, 12, 2, 1, false, false, false)
	if err := op.ApplyBlock(nil, nil, 1); err == nil {
		t.Error("zero fields accepted")
	}
	if err := op.ApplyBlock(mkVecs(2, op.Cols), mkVecs(1, op.Rows), 1); err == nil {
		t.Error("output count mismatch accepted")
	}
	if err := op.ApplyBlock(mkVecs(2, op.Cols-1), mkVecs(2, op.Rows), 1); err == nil {
		t.Error("short coefficients accepted")
	}
	if err := op.ApplyBlock(mkVecs(2, op.Cols), mkVecs(2, op.Rows-1), 1); err == nil {
		t.Error("short output accepted")
	}
}

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestSetRowLengthMismatchPanics(t *testing.T) {
	expectPanic(t, "mismatched SetRowBlocks", func() {
		operator.NewBuilder(1, 4, 2).SetRowBlocks(0, []int32{0, 1}, []float64{1})
	})
}

// applyBoth applies op to one field through ApplyVec and, as one field of
// a full tile, through ApplyBlock, and returns both outputs.
func applyBoth(t *testing.T, op *operator.Operator, coeffs []float64) (vec, blk []float64) {
	t.Helper()
	vec = make([]float64, op.Rows)
	if err := op.ApplyVec(coeffs, vec, 1); err != nil {
		t.Fatal(err)
	}
	tile := make([][]float64, 8)
	for f := range tile {
		tile[f] = coeffs
	}
	outs := mkVecs(8, op.Rows)
	if err := op.ApplyBlock(tile, outs, 1); err != nil {
		t.Fatal(err)
	}
	return vec, outs[3]
}

// Compensated summation across blocks must recover sums a naive loop loses
// to cancellation: (big + 1) − big == 1 exactly, with each term its own
// element block.
func TestApplyRowsCompensated(t *testing.T) {
	b := operator.NewBuilder(1, 3, 1)
	big := 1e16
	b.SetRowBlocks(0, []int32{0, 1, 2}, []float64{big, 1, -big})
	vec, blk := applyBoth(t, b.Finish(nil, 1), []float64{1, 1, 1})
	if vec[0] != 1 || blk[0] != 1 {
		t.Fatalf("compensated sum: ApplyVec %v, ApplyBlock %v, want 1", vec[0], blk[0])
	}
}

// Inside one element block the dot is plain, modes ascending: the same
// three terms as one block round (big + 1) to big, and − big leaves 0 —
// where a per-term compensated sum would have recovered 1. This pins the
// order the kernels, RowDot and the direct paths share.
func TestApplyBlockDotPlain(t *testing.T) {
	b := operator.NewBuilder(1, 3, 3)
	big := 1e16
	b.SetRowBlocks(0, []int32{0}, []float64{big, 1, -big})
	vec, blk := applyBoth(t, b.Finish(nil, 1), []float64{1, 1, 1})
	if vec[0] != 0 || blk[0] != 0 {
		t.Fatalf("one-block dot: ApplyVec %v, ApplyBlock %v, want 0", vec[0], blk[0])
	}
	if got := operator.RowDot([]int32{0}, []float64{big, 1, -big}, []float64{1, 1, 1}); got != 0 {
		t.Fatalf("one-block RowDot %v, want 0", got)
	}
}

// TestApplyRowsEveryWidth holds every kernel width to blockDot's operation
// order: BasisN 1 to 16, which covers the unrolled loop at 6 and
// blockDot's own loop at every other width. Each row of one to three
// blocks carries the order-sensitive triple 1e16, 1, −1e16, under a random
// sign, starting at each position of its weights in turn, among weights of
// random sign; field 0 is all ones, so a reordered dot or partial sum
// cancels to different bits. With Perm nil and set, at workers 1 and 3,
// every ApplyVec row equals RowDot of the stored row bitwise, and ApplyBlock
// at widths 1, 5 and 8 equals ApplyVec bitwise.
func TestApplyRowsEveryWidth(t *testing.T) {
	const rows, elems = 600, 7
	for bn := 1; bn <= 16; bn++ {
		rng := rand.New(rand.NewSource(int64(bn)))
		ids, vals := make([][]int32, rows), make([][]float64, rows)
		for r := range ids {
			nb := 1 + r%3
			for _, e := range rng.Perm(elems)[:nb] {
				ids[r] = append(ids[r], int32(e))
			}
			slices.Sort(ids[r])
			v := make([]float64, nb*bn)
			for i := range v {
				v[i] = (0.5 + rng.Float64()) * float64(1-2*rng.Intn(2))
			}
			sign := float64(1 - 2*rng.Intn(2))
			for i, x := range []float64{1e16, 1, -1e16}[:min(3, len(v))] {
				v[(r/3+i)%len(v)] = sign * x
			}
			vals[r] = v
		}
		coeffs := randFields(elems*bn, 8, int64(bn))
		for c := range coeffs[0] {
			coeffs[0][c] = 1
		}
		for _, perm := range [][]int32{nil, rowPerm(rng, rows)} {
			b := operator.NewBuilder(rows, elems*bn, bn)
			for r := range ids {
				b.SetRowBlocks(r, ids[r], vals[r])
			}
			op := b.Finish(perm, 1)
			want := mkVecs(len(coeffs), rows)
			var es []int32
			var ws []float64
			for r := 0; r < rows; r++ {
				es, ws = op.Row(r, es, ws)
				pt := r
				if perm != nil {
					pt = int(perm[r])
				}
				for f := range coeffs {
					want[f][pt] = operator.RowDot(es, ws, coeffs[f])
				}
			}
			for _, workers := range []int{1, 3} {
				vec := mkVecs(len(coeffs), rows)
				for f := range coeffs {
					if err := op.ApplyVec(coeffs[f], vec[f], workers); err != nil {
						t.Fatal(err)
					}
					expectBits(t, fmt.Sprintf("basisN %d perm=%v workers %d: ApplyVec field %d against RowDot", bn, perm != nil, workers, f), vec[f], want[f])
				}
				for _, nf := range []int{1, 5, 8} {
					blk := mkVecs(nf, rows)
					if err := op.ApplyBlock(coeffs[:nf], blk, workers); err != nil {
						t.Fatal(err)
					}
					for f := range blk {
						expectBits(t, fmt.Sprintf("basisN %d perm=%v workers %d: ApplyBlock width %d field %d against ApplyVec", bn, perm != nil, workers, nf, f), blk[f], vec[f])
					}
				}
			}
		}
	}
}

// rowPerm is a random permutation of n storage rows.
func rowPerm(rng *rand.Rand, n int) []int32 {
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	return perm
}

// expectBits fails unless got and want are bitwise equal.
func expectBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: point %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// expectAllocFree runs the serial apply paths over op and nf fields and
// fails on any steady-state allocation: the packed tile is pooled, the
// accumulators are stack arrays.
func expectAllocFree(t *testing.T, op *operator.Operator, nf int) {
	t.Helper()
	if operator.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	coeffs := randFields(op.Cols, nf, 5)
	out := mkVecs(nf, op.Rows)
	// Warm the pools.
	if err := op.ApplyBlock(coeffs, out, 1); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"ApplyVec":   func() { _ = op.ApplyVec(coeffs[0], out[0], 1) },
		"ApplyBlock": func() { _ = op.ApplyBlock(coeffs, out, 1) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v per run", name, n)
		}
	}
}

// Stamped rows, a full field tile followed by one narrow-tile field, and by
// a zero-padded tile of five fields, at BasisN 3 (the generic loops) and 6
// (applyRows6 and applyRowsBlock6).
func TestApplyAllocFree(t *testing.T) {
	for _, basisN := range []int{3, 6} {
		op := synthetic(600, 150, basisN, 9, true, false, true)
		for _, nf := range []int{9, 13} {
			expectAllocFree(t, op, nf)
		}
	}
}

// Directly stored rows, two fields: one narrow tile, only applyRows.
func TestBSRApplyAllocFree(t *testing.T) {
	expectAllocFree(t, synthetic(600, 150, 3, 11, false, false, true), 2)
}

// A worker that panics mid-apply — here a value-block id past the pool,
// which Validate would have refused — comes back as a *par.PanicError from
// ApplyVec and from both ApplyBlock tile kinds instead of killing the
// process, and the operator it shares the tile pool with still applies
// bitwise afterwards. BasisN 3 runs the generic loops, 6 the width-6 ones.
func TestApplyPanicRecovered(t *testing.T) {
	for _, basisN := range []int{3, 6} {
		op := synthetic(600, 150, basisN, 9, true, false, true)
		bad := *op
		bad.BlockRef = slices.Clone(op.BlockRef)
		bad.BlockRef[len(bad.BlockRef)-1] = int32(len(op.Pool)/op.BasisN) + 7
		coeffs := randFields(op.Cols, 8, 3)
		out := mkVecs(8, op.Rows)
		for name, apply := range map[string]func() error{
			"ApplyVec":          func() error { return bad.ApplyVec(coeffs[0], out[0], 2) },
			"ApplyBlock narrow": func() error { return bad.ApplyBlock(coeffs[:2], out[:2], 2) },
			"ApplyBlock wide":   func() error { return bad.ApplyBlock(coeffs, out, 2) },
		} {
			var pe *par.PanicError
			if err := apply(); !errors.As(err, &pe) || len(pe.Stack) == 0 {
				t.Fatalf("BasisN %d: %s over a corrupt operator at 2 workers: err = %v, want *par.PanicError", basisN, name, err)
			}
		}
		want := mkVecs(8, op.Rows)
		if err := op.ApplyBlock(coeffs, want, 1); err != nil {
			t.Fatal(err)
		}
		if err := op.ApplyBlock(coeffs, out, 2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("BasisN %d: ApplyBlock after a recovered panic differs from the serial apply", basisN)
		}
	}
}

// buildShared stamps `users` rows from row 0's two-block stencil at
// staggered base elements, plus one directly stored row whose first block
// repeats row 0's second block bit for bit.
func buildShared(users int) *operator.Operator {
	rows := users + 1
	b := operator.NewBuilder(rows, 4*rows+8, 2)
	b.SetRowBlocks(0, []int32{0, 2}, []float64{0.5, -0.25, 0.125, 2})
	for r := 1; r < users; r++ {
		b.SetRowStamp(r, []int32{int32(2 * r), int32(2*r + 2)}, 0, []int32{0, 1})
	}
	b.SetRowBlocks(users, []int32{1, 3}, []float64{0.125, 2, 7, -3})
	return b.Finish(nil, 1)
}

func expectRow(t *testing.T, op *operator.Operator, r int, elems []int32, vals []float64) {
	t.Helper()
	ge, gv := op.Row(r, nil, nil)
	if len(ge) != len(elems) || len(gv) != len(vals) {
		t.Fatalf("row %d: %d elements / %d values, want %d / %d", r, len(ge), len(gv), len(elems), len(vals))
	}
	for i := range elems {
		if ge[i] != elems[i] {
			t.Fatalf("row %d element[%d] = %d, want %d", r, i, ge[i], elems[i])
		}
	}
	for i := range vals {
		if math.Float64bits(gv[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("row %d val[%d] = %v, want %v", r, i, gv[i], vals[i])
		}
	}
}

// Stamped rows and bitwise-repeated blocks share pool entries: 50 rows of
// two blocks and one row of two blocks hold three distinct blocks, and
// every logical row reads back exactly as direct SetRowBlocks calls would
// have stored it.
func TestBuilderFinishSharesBlocks(t *testing.T) {
	op := buildShared(50)
	if err := op.Validate(); err != nil {
		t.Fatalf("shared operator invalid: %v", err)
	}
	if op.NNZ() != 51*4 || len(op.BlockRef) != 102 {
		t.Fatalf("nnz = %d, %d refs", op.NNZ(), len(op.BlockRef))
	}
	if st := op.Stats(); st.UniqueBlocks != 3 || len(op.Pool) != 6 {
		t.Fatalf("pool holds %d blocks (%d values), want 3", st.UniqueBlocks, len(op.Pool))
	}
	if op.BlockRef[100] != op.BlockRef[1] {
		t.Fatalf("repeated block interned as %d, first seen as %d", op.BlockRef[100], op.BlockRef[1])
	}
	for r := 0; r < 50; r++ {
		expectRow(t, op, r, []int32{int32(2 * r), int32(2*r + 2)}, []float64{0.5, -0.25, 0.125, 2})
	}
	expectRow(t, op, 50, []int32{1, 3}, []float64{0.125, 2, 7, -3})
}

// With no repeated block there is nothing to share, and Finish still uses
// the one form: the pool holds every block once, in first-use order, and
// refs count up from zero.
func TestBuilderFinishMaterialisesWhenNotSaving(t *testing.T) {
	b := operator.NewBuilder(2, 8, 2)
	b.SetRowBlocks(0, []int32{0, 2}, []float64{0.5, -0.25, 0.125, 2})
	b.SetRowBlocks(1, []int32{1}, []float64{7, -3})
	op := b.Finish(nil, 1)
	if err := op.Validate(); err != nil {
		t.Fatal(err)
	}
	if op.NNZ() != 6 || len(op.Pool) != 6 {
		t.Fatalf("nnz = %d, pool = %v", op.NNZ(), op.Pool)
	}
	for k, ref := range op.BlockRef {
		if ref != int32(k) {
			t.Fatalf("refs = %v, want 0, 1, 2", op.BlockRef)
		}
	}
	expectRow(t, op, 0, []int32{0, 2}, []float64{0.5, -0.25, 0.125, 2})
	expectRow(t, op, 1, []int32{1}, []float64{7, -3})
}

// Malformed stamps — a row reusing a template row's blocks by reference —
// are programming errors.
func TestBuilderTemplatePanics(t *testing.T) {
	b := operator.NewBuilder(3, 8, 2)
	b.SetRowBlocks(0, []int32{0}, []float64{1, 2})
	expectPanic(t, "stamp from a later row", func() { b.SetRowStamp(1, []int32{1}, 2, []int32{0}) })
	expectPanic(t, "stamp from itself", func() { b.SetRowStamp(1, []int32{1}, 1, []int32{0}) })
	expectPanic(t, "ragged stamp", func() { b.SetRowStamp(1, []int32{1, 2}, 0, []int32{0}) })
	b.SetRowStamp(1, []int32{1}, 0, []int32{1}) // row 0 has one block
	expectPanic(t, "stamp past the source row", func() { b.Finish(nil, 1) })
}

// TestBSRBytes pins the byte accounting and the pool's determinism: Bytes
// is the sum of the resident arrays, and stamping rows by reference yields
// the very arrays that storing the same weights directly and interning
// them does.
func TestBSRBytes(t *testing.T) {
	stamped := synthetic(800, 200, 3, 7, true, false, true)
	direct := synthetic(800, 200, 3, 7, false, false, true)
	want := int64(len(stamped.RowPtr))*8 + int64(len(stamped.BlockID))*4 + int64(len(stamped.BlockRef))*4 +
		int64(len(stamped.Pool))*8 + int64(len(stamped.Perm))*4
	if stamped.Bytes() != want {
		t.Fatalf("Bytes = %d, arrays sum to %d", stamped.Bytes(), want)
	}
	if stamped.Stats().UniqueBlocks*4 > len(stamped.BlockID) {
		t.Fatalf("%d unique blocks of %d: the patterns did not share", stamped.Stats().UniqueBlocks, len(stamped.BlockID))
	}
	for _, arr := range []struct {
		name      string
		got, want any
	}{
		{"rowptr", stamped.RowPtr, direct.RowPtr},
		{"blockid", stamped.BlockID, direct.BlockID},
		{"blockref", stamped.BlockRef, direct.BlockRef},
		{"pool", stamped.Pool, direct.Pool},
	} {
		if !reflect.DeepEqual(arr.got, arr.want) {
			t.Fatalf("%s differs between stamped and directly stored rows", arr.name)
		}
	}
}

// clone deep-copies the arrays Validate reads, so a test can break one.
func clone(op *operator.Operator) *operator.Operator {
	c := *op
	c.RowPtr = append([]int64(nil), op.RowPtr...)
	c.BlockID = append([]int32(nil), op.BlockID...)
	c.BlockRef = append([]int32(nil), op.BlockRef...)
	c.Perm = append([]int32(nil), op.Perm...)
	return &c
}

func expectInvalid(t *testing.T, op *operator.Operator, cases map[string]func(o *operator.Operator)) {
	t.Helper()
	if err := op.Validate(); err != nil {
		t.Fatalf("valid operator rejected: %v", err)
	}
	for name, mutate := range cases {
		c := clone(op)
		mutate(c)
		if c.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateBSR exercises the decode-path guards on the row arrays.
func TestValidateBSR(t *testing.T) {
	expectInvalid(t, synthetic(60, 20, 3, 9, true, false, true), map[string]func(o *operator.Operator){
		"out-of-range block id":   func(o *operator.Operator) { o.BlockID[0] = int32(o.Cols / o.BasisN) },
		"negative block id":       func(o *operator.Operator) { o.BlockID[0] = -1 },
		"short block index":       func(o *operator.Operator) { o.BlockID = o.BlockID[:len(o.BlockID)-1] },
		"non-monotone row ptr":    func(o *operator.Operator) { o.RowPtr[2] = o.RowPtr[1] - 1 },
		"row pointer overshoots":  func(o *operator.Operator) { o.RowPtr[o.Rows]++ },
		"short row pointer array": func(o *operator.Operator) { o.RowPtr = o.RowPtr[:o.Rows] },
		"ragged column count":     func(o *operator.Operator) { o.Cols++ },
		"zero basisN":             func(o *operator.Operator) { o.BasisN = 0 },
		"perm out of range":       func(o *operator.Operator) { o.Perm[3] = int32(o.Rows) },
		"short perm":              func(o *operator.Operator) { o.Perm = o.Perm[:o.Rows-1] },
		"perm repeats a row":      func(o *operator.Operator) { o.Perm[3] = o.Perm[2] },
	})
}

// TestValidateTemplatesRejects exercises the guards on what stamped rows
// share: the value-block refs and the pool they index.
func TestValidateTemplatesRejects(t *testing.T) {
	expectInvalid(t, synthetic(200, 60, 2, 3, true, false, false), map[string]func(o *operator.Operator){
		"out-of-range value ref": func(o *operator.Operator) { o.BlockRef[0] = int32(len(o.Pool) / o.BasisN) },
		"negative value ref":     func(o *operator.Operator) { o.BlockRef[0] = -1 },
		"ragged pool":            func(o *operator.Operator) { o.Pool = o.Pool[:len(o.Pool)-1] },
		"refs shorter than ids":  func(o *operator.Operator) { o.BlockRef = o.BlockRef[:len(o.BlockRef)-1] },
		"refs longer than ids":   func(o *operator.Operator) { o.BlockRef = append(o.BlockRef, 0) },
	})
}
