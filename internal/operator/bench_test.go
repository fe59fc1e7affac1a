package operator_test

import (
	"fmt"
	"math/rand"
	"testing"

	"unstencil/internal/operator"
)

// p2Palette is the number of distinct weight blocks the P2 16×16
// structured-mesh SIAC operator holds (of 1,093,120 blocks).
const p2Palette = 16589

// benchOperator builds a synthetic operator shaped like the P2 16×16
// structured-mesh SIAC operator (the request benchmark's memory-resident
// case): every row a sorted set of full element blocks. palette 0 draws a
// fresh weight block for every block, the no-sharing worst case; palette
// k > 0 draws every block from k fixed ones, the sharing an assembled
// operator has.
func benchOperator(b *testing.B, rows, elems, basisN, blocksPerRow, palette int) *operator.Operator {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pal := make([]float64, palette*basisN)
	for i := range pal {
		pal[i] = rng.NormFloat64()
	}
	bld := operator.NewBuilder(rows, elems*basisN, basisN)
	ids := make([]int32, 0, blocksPerRow)
	vals := make([]float64, blocksPerRow*basisN)
	for r := 0; r < rows; r++ {
		ids = ids[:0]
		start := rng.Intn(elems)
		for k := 0; k < blocksPerRow; k++ {
			ids = append(ids, int32((start+k*2)%elems))
		}
		// SetRowBlocks wants ascending element ids.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		dedup := ids[:1]
		for _, e := range ids[1:] {
			if e != dedup[len(dedup)-1] {
				dedup = append(dedup, e)
			}
		}
		v := vals[:len(dedup)*basisN]
		for k := 0; k < len(dedup); k++ {
			blk := v[k*basisN:][:basisN]
			if palette > 0 {
				copy(blk, pal[rng.Intn(palette)*basisN:][:basisN])
				continue
			}
			for i := range blk {
				blk[i] = rng.NormFloat64()
			}
		}
		bld.SetRowBlocks(r, dedup, v)
	}
	return bld.Finish(nil, 1)
}

// p2Variants runs fn over the P2-like shape (4608 rows × 512 elements,
// basisN 6, ~237 blocks per row) with unique weight blocks (≈ 52 MB of
// values — out of cache) and with a p2Palette-block pool (≈ 0.8 MB of
// values plus ≈ 8.7 MB of indices).
func p2Variants(b *testing.B, fn func(b *testing.B, op *operator.Operator)) {
	for _, v := range []struct {
		name    string
		palette int
	}{{"unique", 0}, {"palette", p2Palette}} {
		b.Run(v.name, func(b *testing.B) { fn(b, benchOperator(b, 4608, 512, 6, 237, v.palette)) })
	}
}

func benchApplyVec(b *testing.B, op *operator.Operator) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	coeffs := make([]float64, op.Cols)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	out := make([]float64, op.Rows)
	b.SetBytes(op.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.ApplyVec(coeffs, out, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchApplyBlock(b *testing.B, op *operator.Operator, nf int) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	coeffs := make([][]float64, nf)
	out := make([][]float64, nf)
	for f := range coeffs {
		coeffs[f] = make([]float64, op.Cols)
		for i := range coeffs[f] {
			coeffs[f][i] = rng.NormFloat64()
		}
		out[f] = make([]float64, op.Rows)
	}
	b.SetBytes(op.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.ApplyBlock(coeffs, out, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyVecP2(b *testing.B) {
	p2Variants(b, benchApplyVec)
}

func BenchmarkApplyBlockP2(b *testing.B) {
	p2Variants(b, func(b *testing.B, op *operator.Operator) { benchApplyBlock(b, op, 8) })
}

// BenchmarkApplyBlockWidthsP2 sweeps the field count across one tile, the
// measurement behind ApplyBlock's split: up to fieldBlock/2 fields run as
// SpMVs, more as one zero-padded 8-field SpMM.
func BenchmarkApplyBlockWidthsP2(b *testing.B) {
	p2Variants(b, func(b *testing.B, op *operator.Operator) {
		for nf := 1; nf <= 8; nf++ {
			b.Run(fmt.Sprintf("nf%d", nf), func(b *testing.B) { benchApplyBlock(b, op, nf) })
		}
	})
}

// P1-like shape: 2048 rows × 512 elements, basisN 3, ~164 blocks per row.
func BenchmarkApplyVecP1(b *testing.B) {
	benchApplyVec(b, benchOperator(b, 2048, 512, 3, 164, 0))
}

func BenchmarkApplyBlockP1(b *testing.B) {
	benchApplyBlock(b, benchOperator(b, 2048, 512, 3, 164, 0), 8)
}
