package operator

import (
	"fmt"
	"sync"
	"sync/atomic"

	"unstencil/internal/dg"
	"unstencil/internal/metrics"
)

// Two kernels read the one storage form: applyRows (one field, SpMV) and
// applyRowsBlock (a tile of up to fieldBlock fields, SpMM). The SpMV is
// not the SpMM at width 1: the tile kernel packs the coefficients and
// indexes per-field accumulator arrays. On the P2-shaped operators of
// bench_test.go (4608 rows, ≈ 6.55 M nnz, one worker, 2-vCPU Xeon guest),
// BenchmarkApplyBlock1P2 lost to BenchmarkApplyVecP2 in 10 of 10
// alternating runs with unique weight blocks (medians 15.2 against
// 12.1 ms, ≈ 1.15× per pair) and in 8 of 10 with the 16,589-block palette
// (13.7 against 13.7 ms, ≈ 1.04× per pair). Both kernels run the
// identical compensated recurrence over the identical term sequence per
// (row, field), so their outputs are bit-identical — the property tests
// pin that against a naive reference.

// applyBlock is the row-block granularity of the parallel applies: large
// enough that claim cost (one fetch-add) is noise, small enough that the
// last blocks still balance across workers.
const applyBlock = 256

// ApplyInto post-processes field through the assembled operator, writing
// the value at every evaluation point, in point order, into the
// caller-supplied out of length Rows. The field must live on the mesh the
// operator was assembled for (dimension-checked). The apply itself
// allocates nothing; callers own out.
func (op *Operator) ApplyInto(f *dg.Field, out []float64) error {
	if f.Basis.N != op.BasisN {
		return fmt.Errorf("operator: field has %d modes per element, operator expects %d",
			f.Basis.N, op.BasisN)
	}
	return op.ApplyVec(f.Coeffs, out, op.Workers)
}

// ApplyVec computes out[pt] = Σ_col W[pt][col]·coeffs[col] as a parallel
// row-blocked SpMV. Each storage row is summed in fixed storage order by
// exactly one worker and written to its own output slot, so results are
// bit-identical for every worker count. workers <= 1 runs serially.
func (op *Operator) ApplyVec(coeffs []float64, out []float64, workers int) error {
	if len(coeffs) != op.Cols {
		return fmt.Errorf("operator: coefficient vector has length %d, operator expects %d",
			len(coeffs), op.Cols)
	}
	if len(out) != op.Rows {
		return fmt.Errorf("operator: output has length %d, operator expects %d", len(out), op.Rows)
	}
	if workers = op.clampWorkers(workers); workers <= 1 {
		op.applyRows(coeffs, out, 0, op.Rows)
		return nil
	}
	op.fanOut(workers, func(lo, hi int) { op.applyRows(coeffs, out, lo, hi) })
	return nil
}

// clampWorkers bounds a requested worker count by the number of row blocks
// there are to hand out.
func (op *Operator) clampWorkers(workers int) int {
	return min(workers, (op.Rows+applyBlock-1)/applyBlock)
}

// fanOut runs fn over every applyBlock-row range on workers goroutines
// claiming ranges off a shared counter, and returns when all are done.
func (op *Operator) fanOut(workers int, fn func(lo, hi int)) {
	nBlocks := (op.Rows + applyBlock - 1) / applyBlock
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * applyBlock
				fn(lo, min(lo+applyBlock, op.Rows))
			}
		}()
	}
	wg.Wait()
}

// applyRows computes storage rows [lo, hi) for one field. Row sums are
// Neumaier-compensated: SIAC kernel weights alternate sign (the B-spline
// lobes), so a row's terms cancel heavily and a naive sum would carry the
// full condition number of the cancellation into the result. Compensation
// keeps the apply's rounding below the per-element scheme's own noise
// floor; the per-point paths reduce their rows the same way (RowDot).
//
// The compensation update is Knuth's TwoSum: branch-free, and the exact
// rounding error of fl(sum+term) whichever operand is larger. The textbook
// Neumaier update (a magnitude test selecting one of two error
// expressions) computes the same exact error, so the two are bitwise
// identical by construction; the tests keep that form as the reference.
func (op *Operator) applyRows(coeffs, out []float64, lo, hi int) {
	basisN, pool := op.BasisN, op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		sum, comp := 0.0, 0.0
		for b, e := range ids {
			sum, comp = blockDot(pool[int(refs[b])*basisN:][:basisN], coeffs[int(e)*basisN:][:basisN], sum, comp)
		}
		if op.Perm != nil {
			out[op.Perm[r]] = sum + comp
		} else {
			out[r] = sum + comp
		}
	}
}

// blockDot continues a row's compensated sum (sum, comp) over one block's
// terms w[m]·c[m], modes ascending. It is the one copy of the row
// recurrence: applyRows and RowDot step through it, and applyRowsBlock
// inlines the same update per field.
func blockDot(w, c []float64, sum, comp float64) (float64, float64) {
	c = c[:len(w)]
	for m, wm := range w {
		term := wm * c[m]
		t := sum + term
		z := t - sum
		comp += (sum - (t - z)) + (term - z)
		sum = t
	}
	return sum, comp
}

// RowDot reduces one row in block form — ascending element ids and
// len(ids)·BasisN weights, as Builder.SetRowBlocks takes them — against a
// coefficient vector with applyRows' recurrence. A row built from the
// weights an operator stores therefore dots to the bits ApplyVec writes
// for it; direct per-point evaluation relies on that.
func RowDot(ids []int32, vals, coeffs []float64) float64 {
	if len(ids) == 0 {
		return 0
	}
	bn := len(vals) / len(ids)
	sum, comp := 0.0, 0.0
	for b, e := range ids {
		sum, comp = blockDot(vals[b*bn:][:bn], coeffs[int(e)*bn:][:bn], sum, comp)
	}
	return sum + comp
}

// ApplyCounters models the cost of one single-field apply in the repo's
// counter vocabulary: a multiply-add per entry, streaming reads of the
// weights, two indices per block and the row pointers, plus the
// gathered coefficient blocks. Spatially ordered rows make the coefficient
// gathers mostly cache-resident, so nothing is charged as scattered; the
// contrast with direct evaluation's ScatteredLoads is the point of the
// assembled path.
func (op *Operator) ApplyCounters() metrics.Counters {
	return op.ApplyBlockCounters(1)
}

// packPool recycles the packed coefficient tile ApplyBlock builds. Tiles
// are pooled by whatever capacity they were allocated with; getPacked
// reslices when the pooled capacity suffices and falls back to a fresh
// allocation otherwise.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPacked(n int) []float64 {
	p := packPool.Get().(*[]float64)
	v := *p
	*p = nil
	packPool.Put(p)
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

func putPacked(v []float64) {
	if cap(v) == 0 {
		return
	}
	p := packPool.Get().(*[]float64)
	*p = v[:0]
	packPool.Put(p)
}

// fieldBlock is the field-tile width of the SpMM: operator entries are
// multiplied against up to fieldBlock fields per pass over the operator,
// with one compensated (sum, comp) pair per field. 8 fields × 2 × 8 bytes =
// 128 B of accumulator state, while cutting operator-stream traffic 8×
// versus per-field SpMV.
const fieldBlock = 8

// ApplyBlock computes the operator × dense block product
//
//	out[f][pt] = Σ_col W[pt][col] · coeffs[f][col]   for every field f
//
// blocked over rows and fields. Fields are processed in tiles of
// fieldBlock; within a tile the coefficients are packed row-major
// (packed[col·F + f] = coeffs[f][col]) so one element block's tile is
// contiguous, and the operator is streamed from memory once per tile
// instead of once per field.
//
// Per (row, field) the floating-point operation sequence — term order and
// Neumaier compensation — is exactly ApplyVec's, so results are
// bit-identical to F independent ApplyVec calls, at every worker count.
// workers <= 1 runs serially; each storage row is summed by exactly one
// worker and written to its own output slots.
func (op *Operator) ApplyBlock(coeffs [][]float64, out [][]float64, workers int) error {
	nf := len(coeffs)
	if nf == 0 {
		return fmt.Errorf("operator: ApplyBlock needs at least one field")
	}
	if len(out) != nf {
		return fmt.Errorf("operator: ApplyBlock has %d coefficient vectors but %d outputs", nf, len(out))
	}
	for f := range coeffs {
		if len(coeffs[f]) != op.Cols {
			return fmt.Errorf("operator: field %d coefficient vector has length %d, operator expects %d",
				f, len(coeffs[f]), op.Cols)
		}
		if len(out[f]) != op.Rows {
			return fmt.Errorf("operator: field %d output has length %d, operator expects %d",
				f, len(out[f]), op.Rows)
		}
	}
	packed := getPacked(op.Cols * min(nf, fieldBlock))
	defer putPacked(packed)

	workers = op.clampWorkers(workers)
	for f0 := 0; f0 < nf; f0 += fieldBlock {
		fb := min(fieldBlock, nf-f0)
		tile := packed[:op.Cols*fb]
		for f := 0; f < fb; f++ {
			cf := coeffs[f0+f]
			for c := 0; c < op.Cols; c++ {
				tile[c*fb+f] = cf[c]
			}
		}
		outs := out[f0 : f0+fb]
		if workers <= 1 {
			op.applyRowsBlock(tile, fb, outs, 0, op.Rows)
			continue
		}
		op.fanOut(workers, func(lo, hi int) { op.applyRowsBlock(tile, fb, outs, lo, hi) })
	}
	return nil
}

// ApplyBlockCounters models the cost of one ApplyBlock over nf fields:
// flops scale with the field count, but the operator streams (weights, an
// element id and a value-block id per block, row pointers) are read once
// per field tile of width fieldBlock rather than once per field — the data
// reuse the SpMM buys over nf independent SpMVs. Weights are charged once
// per block, as the kernel reads them, however few distinct blocks the
// pool holds. Coefficient gathers still happen once per (entry, field).
func (op *Operator) ApplyBlockCounters(nf int) metrics.Counters {
	nnz := uint64(op.NNZ())
	idxBytes := nnz * 8 / uint64(op.BasisN)
	tiles := uint64((nf + fieldBlock - 1) / fieldBlock)
	return metrics.Counters{
		Flops:     2 * nnz * uint64(nf),
		BytesRead: tiles*(nnz*8+idxBytes+uint64(len(op.RowPtr))*8) + nnz*8*uint64(nf),
	}
}

// applyRowsBlock computes storage rows [lo, hi) for one field tile. packed
// holds the tile's coefficients at packed[col·fb + f]; out holds the fb
// per-field output vectors. The loops run field-major inside an element
// block: each field walks the whole basisN-long mode run with its (sum, comp)
// pair held in registers instead of spilling all fieldBlock pairs to the
// stack on every entry. Fields are independent accumulators and each
// consumes its terms in exactly applyRows' order (modes ascending within a
// block, blocks ascending within the row), so the loop order cannot
// perturb a bit of any field's sum. The block's packed tile (basisN·fb
// floats) is re-read once per field, but it was just read and stays
// cache-resident.
func (op *Operator) applyRowsBlock(packed []float64, fb int, out [][]float64, lo, hi int) {
	var sum, comp [fieldBlock]float64
	basisN, pool := op.BasisN, op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		for f := 0; f < fb; f++ {
			sum[f], comp[f] = 0, 0
		}
		for b, e := range ids {
			vb := pool[int(refs[b])*basisN:][:basisN]
			blk := packed[int(e)*basisN*fb:][:basisN*fb]
			for f := 0; f < fb; f++ {
				s, c := sum[f], comp[f]
				o := f
				for m := 0; m < basisN; m++ {
					term := vb[m] * blk[o]
					o += fb
					// Same TwoSum compensation as applyRows.
					t := s + term
					z := t - s
					c += (s - (t - z)) + (term - z)
					s = t
				}
				sum[f], comp[f] = s, c
			}
		}
		pt := r
		if op.Perm != nil {
			pt = int(op.Perm[r])
		}
		for f := 0; f < fb; f++ {
			out[f][pt] = sum[f] + comp[f]
		}
	}
}
