package operator

import (
	"fmt"
	"time"

	"unstencil/internal/metrics"
)

// Builder accumulates rows during parallel assembly and freezes them into
// an Operator. Each row is set exactly once by exactly one goroutine (rows
// are the assembly's unit of output), so no synchronisation is needed
// beyond the caller's dispatch barrier. Templates are registered serially
// (AddTemplateBlocks) and rows resolved through them (SetRowTemplated)
// store nothing of their own.
type Builder struct {
	rows   int
	cols   int
	basisN int
	// elems[r] holds storage row r's ascending element ids, vals[r] its
	// len(elems[r])·basisN weights; both nil for unset and templated rows.
	elems [][]int32
	vals  [][]float64

	// Registered templates (element-id deltas from the first block, and
	// weights), and the row → (template, base column) tables; rowTpl is
	// allocated by the first AddTemplateBlocks.
	tplDelta [][]int32
	tplVal   [][]float64
	rowTpl   []int32
	rowBase  []int32
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
}

// AddTemplateBlocks registers a shared stencil pattern and returns its id:
// one element id per basisN-wide block of the representative row
// (ascending) and len(elems)·basisN weights. The ids are stored as deltas
// from elems[0], so a row at any base element can resolve through the
// pattern. Must not be called concurrently (the assembly's serial stamping
// phase registers templates).
func (b *Builder) AddTemplateBlocks(elems []int32, vals []float64) int32 {
	if len(elems) == 0 || len(vals) != len(elems)*b.basisN {
		panic(fmt.Sprintf("operator: template with %d blocks × basisN %d, %d values",
			len(elems), b.basisN, len(vals)))
	}
	if b.rowTpl == nil {
		b.rowTpl = make([]int32, b.rows)
		for i := range b.rowTpl {
			b.rowTpl[i] = -1
		}
		b.rowBase = make([]int32, b.rows)
	}
	deltas := make([]int32, len(elems))
	for i, e := range elems {
		deltas[i] = e - elems[0]
	}
	b.tplDelta = append(b.tplDelta, deltas)
	b.tplVal = append(b.tplVal, append([]float64(nil), vals...))
	return int32(len(b.tplVal) - 1)
}

// SetRowTemplated resolves storage row r through template tpl with its
// first block at element baseElem. The row stores no entries of its own:
// anything an earlier SetRowBlocks put there is dropped.
func (b *Builder) SetRowTemplated(r int, tpl, baseElem int32) {
	if tpl < 0 || int(tpl) >= len(b.tplVal) {
		panic(fmt.Sprintf("operator: row %d references template %d of %d", r, tpl, len(b.tplVal)))
	}
	b.elems[r], b.vals[r] = nil, nil
	b.rowTpl[r] = tpl
	b.rowBase[r] = baseElem * int32(b.basisN)
}

// Finish freezes the accumulated rows into an immutable Operator. The
// registered templates become the operator's TemplateSet when sharing them
// saves net bytes; otherwise templated rows are materialised as directly
// stored rows, so the caller never ends up with an indirection that costs
// more than it saves.
func (b *Builder) Finish(perm []int32, workers int, scheme string, wall time.Duration, counters metrics.Counters) *Operator {
	nnz := 0
	for _, v := range b.vals {
		nnz += len(v)
	}
	op := &Operator{
		Rows:             b.rows,
		Cols:             b.cols,
		BasisN:           b.basisN,
		RowPtr:           make([]int64, b.rows+1),
		BlockID:          make([]int32, 0, nnz/b.basisN),
		Val:              make([]float64, 0, nnz),
		Perm:             perm,
		Workers:          workers,
		AssemblyScheme:   scheme,
		AssemblyWall:     wall,
		AssemblyCounters: counters,
	}
	share := b.templatesSaveBytes()
	if share {
		ts := &TemplateSet{
			TplPtr:  make([]int64, 1, len(b.tplVal)+1),
			RowTpl:  b.rowTpl,
			RowBase: b.rowBase,
		}
		for t := range b.tplVal {
			ts.BlockDelta = append(ts.BlockDelta, b.tplDelta[t]...)
			ts.TplVal = append(ts.TplVal, b.tplVal[t]...)
			ts.TplPtr = append(ts.TplPtr, int64(len(ts.TplVal)))
		}
		op.Tpl = ts
	}
	for r := 0; r < b.rows; r++ {
		t := int32(-1)
		if b.rowTpl != nil {
			t = b.rowTpl[r]
		}
		switch {
		case t < 0:
			op.BlockID = append(op.BlockID, b.elems[r]...)
			op.Val = append(op.Val, b.vals[r]...)
		case !share:
			// Templates without a net saving: materialise the row. (With
			// sharing on, a templated row stores nothing here.)
			baseElem := b.rowBase[r] / int32(b.basisN)
			for _, d := range b.tplDelta[t] {
				op.BlockID = append(op.BlockID, baseElem+d)
			}
			op.Val = append(op.Val, b.tplVal[t]...)
		}
		op.RowPtr[r+1] = int64(len(op.Val))
	}
	return op
}

// templatesSaveBytes reports whether the registered templates are a net
// saving: the weights and element ids the templated rows would otherwise
// store directly must outweigh one stored copy of each template plus the
// Rows-wide side tables.
func (b *Builder) templatesSaveBytes() bool {
	if len(b.tplVal) == 0 {
		return false
	}
	blockBytes := int64(b.basisN)*8 + 4
	var tplBlocks, sharedBlocks int64
	for _, d := range b.tplDelta {
		tplBlocks += int64(len(d))
	}
	for _, t := range b.rowTpl {
		if t >= 0 {
			sharedBlocks += int64(len(b.tplDelta[t]))
		}
	}
	return (sharedBlocks-tplBlocks)*blockBytes-int64(b.rows)*8-int64(len(b.tplVal)+1)*8 > 0
}
