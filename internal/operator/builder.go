package operator

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"unstencil/internal/metrics"
)

// Builder accumulates rows during parallel assembly and freezes them into
// an Operator. Each row is set exactly once by exactly one goroutine (rows
// are the assembly's unit of output), so no synchronisation is needed
// beyond the caller's dispatch barrier. Weight blocks are interned into the
// pool only in Finish, serially and in storage-row order, so the pool is
// the same for every worker count.
type Builder struct {
	rows   int
	cols   int
	basisN int
	// elems[r] holds storage row r's ascending element ids. A directly set
	// row keeps its len(elems[r])·basisN weights in vals[r]; a stamped row
	// keeps its source row in src[r] and, per block, the source block it
	// reuses in slots[r]. All nil for unset rows.
	elems [][]int32
	vals  [][]float64
	src   []int32
	slots [][]int32
}

// NewBuilder sizes a builder for a rows × cols operator with basisN modes
// per element.
func NewBuilder(rows, cols, basisN int) *Builder {
	return &Builder{
		rows:   rows,
		cols:   cols,
		basisN: basisN,
		elems:  make([][]int32, rows),
		vals:   make([][]float64, rows),
		src:    make([]int32, rows),
		slots:  make([][]int32, rows),
	}
}

// SetRowBlocks stores storage row r: one element id per basisN-wide block
// (ascending) and len(elems)·basisN weights in block-major, mode-ascending
// order. Both slices are copied. Unset rows freeze as empty (a point no
// element contributes to).
func (b *Builder) SetRowBlocks(r int, elems []int32, vals []float64) {
	if len(vals) != len(elems)*b.basisN {
		panic(fmt.Sprintf("operator: row %d has %d blocks × basisN %d but %d values",
			r, len(elems), b.basisN, len(vals)))
	}
	b.elems[r] = append([]int32(nil), elems...)
	b.vals[r] = append([]float64(nil), vals...)
	b.slots[r] = nil
}

// SetRowStamp stores storage row r by reference to an earlier row: block k
// multiplies element elems[k] (ascending) with the weights of block
// slots[k] of row src. Finish resolves it to src's value-block ids without
// hashing a weight. src must precede r, so it is resolved first.
func (b *Builder) SetRowStamp(r int, elems []int32, src int, slots []int32) {
	if len(slots) != len(elems) || src < 0 || src >= r {
		panic(fmt.Sprintf("operator: row %d stamps %d blocks from %d slots of row %d",
			r, len(elems), len(slots), src))
	}
	b.elems[r] = append([]int32(nil), elems...)
	b.vals[r] = nil
	b.src[r] = int32(src)
	b.slots[r] = append([]int32(nil), slots...)
}

// Finish freezes the accumulated rows into an immutable Operator, interning
// every directly set weight block into the pool by bit pattern.
func (b *Builder) Finish(perm []int32, workers int, scheme string, wall time.Duration, counters metrics.Counters) *Operator {
	nBlocks := 0
	for _, e := range b.elems {
		nBlocks += len(e)
	}
	op := &Operator{
		Rows:             b.rows,
		Cols:             b.cols,
		BasisN:           b.basisN,
		RowPtr:           make([]int64, b.rows+1),
		BlockID:          make([]int32, 0, nBlocks),
		BlockRef:         make([]int32, 0, nBlocks),
		Perm:             perm,
		Workers:          workers,
		AssemblyScheme:   scheme,
		AssemblyWall:     wall,
		AssemblyCounters: counters,
	}
	// Sized for no sharing at all, so appending never copies the pool.
	pool := blockPool{bn: b.basisN, vals: make([]float64, 0, nBlocks*b.basisN)}
	for r, elems := range b.elems {
		op.BlockID = append(op.BlockID, elems...)
		if slots := b.slots[r]; slots != nil {
			lo, hi := op.RowPtr[b.src[r]], op.RowPtr[b.src[r]+1]
			for _, s := range slots {
				if s < 0 || int64(s) >= hi-lo {
					panic(fmt.Sprintf("operator: row %d stamps block %d of %d-block row %d", r, s, hi-lo, b.src[r]))
				}
				op.BlockRef = append(op.BlockRef, op.BlockRef[lo+int64(s)])
			}
		} else {
			for k := range elems {
				op.BlockRef = append(op.BlockRef, pool.intern(b.vals[r][k*b.basisN:][:b.basisN]))
			}
		}
		op.RowPtr[r+1] = int64(len(op.BlockID))
	}
	// Keep only what the pool holds: with sharing that is a small part of
	// its capacity, and Bytes (the cache's budget) counts length.
	op.Pool = pool.vals
	if len(op.Pool) < cap(op.Pool) {
		op.Pool = slices.Clone(op.Pool)
	}
	return op
}

// blockPool interns basisN-wide weight blocks by bit pattern in an
// open-addressed table, so a repeated block costs one hash and one compare
// and only distinct blocks are stored. A table entry holds the top 32 bits
// of the block's hash above its id + 1 (0 is empty): a probe compares
// weights only on a hash match, and growing re-slots entries without
// rereading the pool.
type blockPool struct {
	bn    int
	vals  []float64
	table []uint64
	shift uint // 64 − log2(len(table))
}

// intern returns the id of the pooled block bitwise equal to v, adding v
// if there is none.
func (p *blockPool) intern(v []float64) int32 {
	n := len(p.vals) / p.bn
	if 2*(n+1) > len(p.table) {
		p.grow()
	}
	h := hashBits(v)
	mask := len(p.table) - 1
	for i := int(h >> p.shift); ; i = (i + 1) & mask {
		e := p.table[i]
		if e == 0 {
			p.vals = append(p.vals, v...)
			p.table[i] = h&^(1<<32-1) | uint64(n+1)
			return int32(n)
		}
		id := int(uint32(e)) - 1
		if e>>32 == h>>32 && sameBits(p.vals[id*p.bn:][:p.bn], v) {
			return int32(id)
		}
	}
}

// hashBits is FNV-1a over v's bit patterns, spread by a Fibonacci multiply
// so the top bits — the ones the table indexes by — depend on every input
// bit.
func hashBits(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h * 0x9e3779b97f4a7c15
}

// grow doubles the table and re-slots every entry by its stored hash bits.
func (p *blockPool) grow() {
	old := p.table
	size := max(2*len(old), 1024)
	p.table = make([]uint64, size)
	p.shift = uint(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e >> p.shift)
		for p.table[i] != 0 {
			i = (i + 1) & mask
		}
		p.table[i] = e
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
