package operator

import (
	"fmt"
	"sync"

	"unstencil/internal/dg"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
)

// Two kernels read the one storage form: applyRows (one field, SpMV) and
// applyRowsBlock (a tile of fieldBlock fields, SpMM). Both reduce a
// row in one order. Inside each element block the dot is plain, modes
// ascending: d = w[0]·c[0], then d += w[m]·c[m]. Across the row's block
// partials, ascending, the sum is compensated by TwoSum. SIAC kernel
// weights alternate sign (the B-spline lobes), so a row's terms cancel, and
// the compensation keeps the error relative to Σ|w·c| instead of letting it
// grow with the row: a block partial is off by at most γ_basisN·Σ|w·c| over
// its block (γ_n = n·u/(1−n·u), u = 2^-53), so a row stays within
// u·|exact| + γ_{basisN+1}·Σ|w·c| of its exact sum. The per-point paths
// reduce their rows the same way (RowDot), so they match the apply bitwise.
//
// Compensating once per block rather than once per term takes the 7 flops
// of a TwoSum off every (entry, field). On the P2-shaped operators of
// bench_test.go (4608 rows, ≈ 6.55 M nnz, one worker, 2-vCPU Xeon guest),
// over 10 alternating pairs against per-term compensation:
// SpMV medians 16.0 → 11.9 ms with unique weight blocks and 17.9 → 10.2 ms
// with the 16,589-block palette (BenchmarkApplyVecP2, this order ahead in 9
// and 10 of 10 pairs); 8-field SpMM 113.7 → 47.9 and 126.2 → 47.8 ms
// (BenchmarkApplyBlockP2, 10 of 10 each).
//
// Both kernels have a width-6 loop, chosen once per call. The SpMV's loop
// against the blockDot loop it replaced, on the service's Structured(16)
// periodic P2 operator (one worker, same guest, 61 interleaved rounds,
// bitwise equal every round): 6.74 → 4.71 ms, ahead in 61 of 61 rounds.
// The SpMM does 18 flops per (block, lane), 6 multiplies and 5 adds of the
// block dot and 7 of the TwoSum: 157.4 M per 8-field apply of that operator
// (1,093,120 blocks). Its width-6 loop against the mode loop it replaced
// (41 interleaved rounds, bitwise equal every round): 51.6 → 38.7 ms, ahead
// in 41 of 41, 3.0 → 4.1 GFlop/s. Eight lanes give eight independent add
// chains, so the bound is the flop rate, not the 9.6 MB streamed: scalar
// SSE2 retires two flops per cycle, 4.2 GFlop/s at the guest's nominal
// 2.1 GHz. Other widths keep the generic loops until a request-level
// workload runs them.

// applyBlock is the row-block granularity of the parallel applies, one
// par unit each: large enough that claim cost (one fetch-add and a
// deferred recover) is noise, small enough that the last blocks still
// balance across workers.
const applyBlock = 256

// ApplyInto post-processes field through the assembled operator, writing
// the value at every evaluation point, in point order, into the
// caller-supplied out of length Rows. The field must live on the mesh the
// operator was assembled for (dimension-checked). The apply itself
// allocates nothing; callers own out.
func (op *Operator) ApplyInto(f *dg.Field, out []float64) error {
	if err := op.CheckField(f); err != nil {
		return err
	}
	return op.ApplyVec(f.Coeffs, out, op.Workers)
}

// CheckField reports an error unless field f has the operator's BasisN
// modes per element, the check every field-typed apply makes before
// reading f.Coeffs as a coefficient vector.
func (op *Operator) CheckField(f *dg.Field) error {
	if f.Basis.N != op.BasisN {
		return fmt.Errorf("operator: field has %d modes per element, operator expects %d",
			f.Basis.N, op.BasisN)
	}
	return nil
}

// ApplyVec computes out[pt] = Σ_col W[pt][col]·coeffs[col] as a parallel
// row-blocked SpMV. Each storage row is summed in fixed storage order by
// exactly one worker and written to its own output slot, so results are
// bit-identical for every worker count. workers <= 1 runs serially; a
// worker's panic comes back as a *par.PanicError.
func (op *Operator) ApplyVec(coeffs []float64, out []float64, workers int) error {
	if len(coeffs) != op.Cols {
		return fmt.Errorf("operator: coefficient vector has length %d, operator expects %d",
			len(coeffs), op.Cols)
	}
	if len(out) != op.Rows {
		return fmt.Errorf("operator: output has length %d, operator expects %d", len(out), op.Rows)
	}
	return op.applyVec(coeffs, out, workers)
}

// applyVec runs applyRows over every row, serially for workers <= 1 and
// otherwise as par.Chunks units of applyBlock rows: the one dispatch of the
// SpMV, which ApplyVec and ApplyBlock's narrow tiles share. The serial call
// stays inline, because a closure handed to par escapes and the serial
// apply allocates nothing.
func (op *Operator) applyVec(coeffs, out []float64, workers int) error {
	if workers <= 1 {
		op.applyRows(coeffs, out, 0, op.Rows)
		return nil
	}
	return par.Chunks(workers, op.Rows, applyBlock, func(lo, hi int) { op.applyRows(coeffs, out, lo, hi) })
}

// applyRows computes storage rows [lo, hi) for one field. BasisN 6
// (polynomial degree 2, the width every operator workload of the request
// benchmark runs) has its own loop, chosen once per call, whose
// element-block dot is written out term by term over fixed-size arrays: no
// inner loop, no bounds check per mode. It is blockDot's operation
// sequence, so it yields the bits blockDot does (TestApplyRowsEveryWidth
// pins widths 1 to 16). Every other width steps through blockDot itself.
func (op *Operator) applyRows(coeffs, out []float64, lo, hi int) {
	if op.BasisN == 6 {
		op.applyRows6(coeffs, out, lo, hi)
		return
	}
	basisN, pool := op.BasisN, op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		sum, comp := 0.0, 0.0
		for b, e := range ids {
			sum, comp = blockDot(pool[int(refs[b])*basisN:][:basisN], coeffs[int(e)*basisN:][:basisN], sum, comp)
		}
		op.put(out, r, sum+comp)
	}
}

// put writes storage row r's value to its evaluation point's slot of out.
func (op *Operator) put(out []float64, r int, v float64) {
	if op.Perm != nil {
		out[op.Perm[r]] = v
	} else {
		out[r] = v
	}
}

// applyRows6 is applyRows at width 6: per block d = w[0]·c[0], then
// d += w[m]·c[m] for m ascending, then addPartial, as blockDot does it.
func (op *Operator) applyRows6(coeffs, out []float64, lo, hi int) {
	pool := op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		sum, comp := 0.0, 0.0
		for b, e := range ids {
			w, c := (*[6]float64)(pool[int(refs[b])*6:]), (*[6]float64)(coeffs[int(e)*6:])
			d := w[0] * c[0]
			d += w[1] * c[1]
			d += w[2] * c[2]
			d += w[3] * c[3]
			d += w[4] * c[4]
			d += w[5] * c[5]
			sum, comp = addPartial(sum, comp, d)
		}
		op.put(out, r, sum+comp)
	}
}

// blockDot continues a row's compensated sum (sum, comp) over one element
// block: the plain dot d = Σ w[m]·c[m], modes ascending, folded in by
// addPartial. It is the one definition of the row recurrence: RowDot, and
// applyRows at every width but 6, step through it; applyRows6 writes the
// same operations out term by term, applyRowsBlock unrolls them across its
// 8 fields, and applyRowsBlock6 across both fields and modes.
// TestApplyRowsEveryWidth pins both kernels to it bitwise at every width.
// It stays under the inliner's budget, so the SpMV pays no call per block.
func blockDot(w, c []float64, sum, comp float64) (float64, float64) {
	d := w[0] * c[0]
	for m := 1; m < len(w); m++ {
		d += w[m] * c[m]
	}
	return addPartial(sum, comp, d)
}

// addPartial adds a block partial d to the compensated sum (sum, comp) by
// Knuth's TwoSum, which carries the exact rounding error of fl(sum+d) into
// comp whichever operand is larger.
func addPartial(sum, comp, d float64) (float64, float64) {
	t := sum + d
	z := t - sum
	return t, comp + ((sum - (t - z)) + (d - z))
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

// fieldBlock is the field-tile width of the SpMM: each weight is loaded
// once against fieldBlock fields, and the operator is streamed once per
// tile instead of once per field.
const fieldBlock = 8

// wideTile reports whether a tile of w ≤ fieldBlock fields runs through the
// SpMM, zero-padded to fieldBlock, rather than as w SpMVs. A padded tile
// costs about what a full one does. On the P2-shaped bench operators
// (BenchmarkApplyBlockWidthsP2, one worker, 10 rounds, medians) a full tile
// costs 4.2 SpMVs with the 16,589-block palette an assembled operator
// shares, and 3.3 with unique blocks, whose SpMV streams 52 MB. At four
// fields four SpMVs beat a padded tile on the palette, 37.2 against 41.2 ms
// in 10 of 10 rounds, and lose on unique blocks, 45.0 against 37.3 ms. The
// service's operators share their blocks, so tiles of more than half the
// width go to the SpMM.
func wideTile(w int) bool { return w > fieldBlock/2 }

// ApplyBlock computes the operator × dense block product
//
//	out[f][pt] = Σ_col W[pt][col] · coeffs[f][col]   for every field f
//
// Fields go in tiles of fieldBlock, the last one possibly narrower. A wide
// tile runs through applyRowsBlock, its coefficients packed row-major
// (packed[col·fieldBlock + f] = coeffs[f][col]) so one element block's
// tile is contiguous, and zeros in the lanes past the tile's last field.
// A narrow tile runs field by field through the SpMV.
//
// Per (row, field) both kernels perform the same floating-point operations
// in the same order, so results are bit-identical to F independent
// ApplyVec calls, at every worker count. workers <= 1 runs serially; each
// storage row is summed by exactly one worker and written to its own output
// slots. A worker's panic comes back as a *par.PanicError, once every
// worker has stopped, so the packed tile still returns to its pool.
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
	for f0 := 0; f0 < nf; f0 += fieldBlock {
		cs, outs := coeffs[f0:min(f0+fieldBlock, nf)], out[f0:min(f0+fieldBlock, nf)]
		if !wideTile(len(cs)) {
			for f := range cs {
				if err := op.applyVec(cs[f], outs[f], workers); err != nil {
					return err
				}
			}
			continue
		}
		tile := getPacked(op.Cols * fieldBlock)
		for f, cf := range cs {
			for c, v := range cf {
				tile[c*fieldBlock+f] = v
			}
		}
		for f := len(cs); f < fieldBlock; f++ {
			for c := 0; c < op.Cols; c++ {
				tile[c*fieldBlock+f] = 0
			}
		}
		var err error
		if workers <= 1 {
			op.applyRowsBlock(tile, outs, 0, op.Rows)
		} else {
			err = par.Chunks(workers, op.Rows, applyBlock, func(lo, hi int) { op.applyRowsBlock(tile, outs, lo, hi) })
		}
		putPacked(tile)
		if err != nil {
			return err
		}
	}
	return nil
}

// ApplyBlockCounters models the cost of one ApplyBlock over nf fields in
// the repo's counter vocabulary, as its kernels run them: a multiply-add per
// (entry, lane) and a coefficient gather per (entry, lane), where a wide
// tile has fieldBlock lanes, pad lanes included, and a narrow tile's field
// one; and the operator streams (weights, an element id and a value-block id
// per block, row pointers) once per wide tile and once per narrow-tile
// field — the data reuse the SpMM buys over independent SpMVs. Weights are
// charged once per block, as the kernels read them, however few distinct
// blocks the pool holds. Coefficient gathers hit spatially ordered rows,
// mostly cache-resident, so nothing is charged as scattered — the contrast
// with direct evaluation's ScatteredLoads is the point of the assembled path.
func (op *Operator) ApplyBlockCounters(nf int) metrics.Counters {
	lanes, passes := nf/fieldBlock*fieldBlock, nf/fieldBlock
	if rest := nf % fieldBlock; wideTile(rest) {
		lanes, passes = lanes+fieldBlock, passes+1
	} else {
		lanes, passes = lanes+rest, passes+rest
	}
	nnz := uint64(op.NNZ())
	stream := nnz*8 + nnz*8/uint64(op.BasisN) + uint64(len(op.RowPtr))*8
	return metrics.Counters{
		Flops:     2 * nnz * uint64(lanes),
		BytesRead: uint64(passes)*stream + nnz*8*uint64(lanes),
	}
}

// applyRowsBlock computes storage rows [lo, hi) for one tile of
// fieldBlock lanes: packed holds the tile's coefficients at
// packed[col·fieldBlock + f], out the output vectors of its first len(out)
// lanes; the sums of the lanes past them are dropped. Within an
// element block each weight is loaded once and multiplied into eight named
// partials d0..d7, each field's plain dot with modes ascending; the block
// then folds the eight partials into their compensated sums by addPartial.
// That is blockDot's operation sequence per field, unrolled across fields.
// BasisN 6 has its own loop, chosen once per call as applyRows chooses
// applyRows6; every other width runs the mode loop below.
func (op *Operator) applyRowsBlock(packed []float64, out [][]float64, lo, hi int) {
	if op.BasisN == 6 {
		op.applyRowsBlock6(packed, out, lo, hi)
		return
	}
	basisN, pool := op.BasisN, op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		var sum, comp [fieldBlock]float64
		for b, e := range ids {
			w := pool[int(refs[b])*basisN:][:basisN]
			c := packed[int(e)*basisN*fieldBlock:][:basisN*fieldBlock]
			c0 := (*[fieldBlock]float64)(c)
			w0 := w[0]
			d0, d1, d2, d3 := w0*c0[0], w0*c0[1], w0*c0[2], w0*c0[3]
			d4, d5, d6, d7 := w0*c0[4], w0*c0[5], w0*c0[6], w0*c0[7]
			for m := 1; m < basisN; m++ {
				wm, cm := w[m], (*[fieldBlock]float64)(c[m*fieldBlock:])
				d0 += wm * cm[0]
				d1 += wm * cm[1]
				d2 += wm * cm[2]
				d3 += wm * cm[3]
				d4 += wm * cm[4]
				d5 += wm * cm[5]
				d6 += wm * cm[6]
				d7 += wm * cm[7]
			}
			sum[0], comp[0] = addPartial(sum[0], comp[0], d0)
			sum[1], comp[1] = addPartial(sum[1], comp[1], d1)
			sum[2], comp[2] = addPartial(sum[2], comp[2], d2)
			sum[3], comp[3] = addPartial(sum[3], comp[3], d3)
			sum[4], comp[4] = addPartial(sum[4], comp[4], d4)
			sum[5], comp[5] = addPartial(sum[5], comp[5], d5)
			sum[6], comp[6] = addPartial(sum[6], comp[6], d6)
			sum[7], comp[7] = addPartial(sum[7], comp[7], d7)
		}
		op.putBlock(out, r, &sum, &comp)
	}
}

// putBlock writes storage row r's lane values sum[f]+comp[f] to its
// evaluation point's slot of each output vector.
func (op *Operator) putBlock(out [][]float64, r int, sum, comp *[fieldBlock]float64) {
	pt := r
	if op.Perm != nil {
		pt = int(op.Perm[r])
	}
	for f, o := range out {
		o[pt] = sum[f] + comp[f]
	}
}

// applyRowsBlock6 is applyRowsBlock at width 6: the weights of a block are
// one [6]float64, its coefficient tile one [6·fieldBlock]float64, and the
// six mode rounds are written out, modes ascending, so no mode loop and no
// bounds check per mode is left.
func (op *Operator) applyRowsBlock6(packed []float64, out [][]float64, lo, hi int) {
	pool := op.Pool
	for r := lo; r < hi; r++ {
		ids, refs := op.rowBlocks(r)
		var sum, comp [fieldBlock]float64
		for b, e := range ids {
			w := (*[6]float64)(pool[int(refs[b])*6:])
			c := (*[6 * fieldBlock]float64)(packed[int(e)*6*fieldBlock:])
			w0, w1, w2, w3, w4, w5 := w[0], w[1], w[2], w[3], w[4], w[5]
			d0, d1, d2, d3 := w0*c[0], w0*c[1], w0*c[2], w0*c[3]
			d4, d5, d6, d7 := w0*c[4], w0*c[5], w0*c[6], w0*c[7]
			d0 += w1 * c[8]
			d1 += w1 * c[9]
			d2 += w1 * c[10]
			d3 += w1 * c[11]
			d4 += w1 * c[12]
			d5 += w1 * c[13]
			d6 += w1 * c[14]
			d7 += w1 * c[15]
			d0 += w2 * c[16]
			d1 += w2 * c[17]
			d2 += w2 * c[18]
			d3 += w2 * c[19]
			d4 += w2 * c[20]
			d5 += w2 * c[21]
			d6 += w2 * c[22]
			d7 += w2 * c[23]
			d0 += w3 * c[24]
			d1 += w3 * c[25]
			d2 += w3 * c[26]
			d3 += w3 * c[27]
			d4 += w3 * c[28]
			d5 += w3 * c[29]
			d6 += w3 * c[30]
			d7 += w3 * c[31]
			d0 += w4 * c[32]
			d1 += w4 * c[33]
			d2 += w4 * c[34]
			d3 += w4 * c[35]
			d4 += w4 * c[36]
			d5 += w4 * c[37]
			d6 += w4 * c[38]
			d7 += w4 * c[39]
			d0 += w5 * c[40]
			d1 += w5 * c[41]
			d2 += w5 * c[42]
			d3 += w5 * c[43]
			d4 += w5 * c[44]
			d5 += w5 * c[45]
			d6 += w5 * c[46]
			d7 += w5 * c[47]
			sum[0], comp[0] = addPartial(sum[0], comp[0], d0)
			sum[1], comp[1] = addPartial(sum[1], comp[1], d1)
			sum[2], comp[2] = addPartial(sum[2], comp[2], d2)
			sum[3], comp[3] = addPartial(sum[3], comp[3], d3)
			sum[4], comp[4] = addPartial(sum[4], comp[4], d4)
			sum[5], comp[5] = addPartial(sum[5], comp[5], d5)
			sum[6], comp[6] = addPartial(sum[6], comp[6], d6)
			sum[7], comp[7] = addPartial(sum[7], comp[7], d7)
		}
		op.putBlock(out, r, &sum, &comp)
	}
}
