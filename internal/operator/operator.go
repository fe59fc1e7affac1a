// Package operator holds the SIAC post-processing step assembled as a
// sparse linear map from dG modal coefficient vectors to post-processed
// point values.
//
// The post-processed value at a point is linear in the modal coefficients
// (Eq. (2) contracts quadrature samples of the kernel against u's basis
// expansion), and none of the expensive geometry — candidate finding,
// Sutherland–Hodgman clipping, fan triangulation, kernel Horner
// evaluation — depends on the coefficients. Assembling the per-basis
// weights
//
//	W[pt][e][m] = (1/h²) Σ_q w_q · jac · K_x · K_y · φ_m(r_q, s_q)
//
// once therefore amortises all of that geometry across every field
// post-processed on the same (mesh, grid, kernel, h) tuple: each further
// field costs one sparse matrix–vector product. This inverts the trade-off
// of matrix-free dG operator work (Kronbichler & Kormann): there assembly
// loses because the operator is memory-bound; here the per-entry geometry
// is so expensive that the assembled form wins after a handful of fields.
//
// # Storage
//
// There is one representation. Rows are evaluation points; a row's entries
// are a sequence of full BasisN-wide element blocks (assembly accumulates
// whole elements, so a lone column never occurs), stored as one element id
// per block (BlockID) next to BasisN weights per block (Val). The inner
// mode loop of both kernels is therefore unit-stride over the weights and
// over the gathered coefficient block, and the index stream is BasisN×
// smaller than one column index per entry.
//
// Rows that are exact translates of each other — interior points of a
// (near-)structured mesh, detected from geometry by the assembler before it
// integrates anything (core's congruence-first assembly) — share one
// stencil template: the weights and the element-id deltas are stored once
// in the TemplateSet and each such row keeps only a template id and a base
// column. Every row, templated or not, is read through the one rowBlocks
// accessor, so sharing is deduplicated storage, never different arithmetic.
//
// Rows may be permuted into a spatial (Morton/quadtree) order at assembly
// time for cache-friendly coefficient gathers; Perm maps storage rows back
// to point indices so the output is always in point order.
package operator

import (
	"fmt"
	"time"

	"unstencil/internal/metrics"
)

// Operator is the assembled post-processing map. It is immutable after
// Builder.Finish (or a decode) and safe for concurrent applies.
type Operator struct {
	Rows   int // evaluation points
	Cols   int // mesh elements × BasisN
	BasisN int // modes per element (block width)

	// RowPtr has Rows+1 entries in units of stored weights: storage row r
	// owns Val[RowPtr[r]:RowPtr[r+1]] and the BlockID span at the same
	// bounds divided by BasisN. Every entry is a multiple of BasisN.
	RowPtr []int64
	// BlockID holds one element id per stored block, ascending within a
	// row: block k of row r multiplies the coefficients of element
	// BlockID[RowPtr[r]/BasisN+k].
	BlockID []int32
	// Val holds the weights, block-major with modes ascending in a block.
	Val []float64

	// Perm maps storage row r to the evaluation-point index it computes;
	// nil means identity. Assembly in Morton order stores spatially
	// neighbouring points in adjacent rows, so consecutive rows gather
	// nearby (often identical) coefficient blocks.
	Perm []int32

	// Tpl holds the shared stencil templates; nil when no rows share one.
	// Rows with Tpl.RowTpl[r] >= 0 store nothing in Val/BlockID — rowBlocks
	// resolves them through the template — so len(Val) undercounts the
	// logical nnz (see NNZ).
	Tpl *TemplateSet

	// Congruence records what congruence-first assembly did; nil for
	// operators that were loaded from disk or built by hand.
	Congruence *CongruenceStats

	// Workers is the default apply concurrency; <= 1 applies serially.
	Workers int

	// Backing pins whatever memory the slices alias when they do not own
	// it — an mmap'd artifact file, for operators loaded zero-copy from
	// disk. Holding the reference here ties the mapping's lifetime to the
	// operator's reachability, so the garbage collector can only release
	// the mapping once no caller can touch the slices. Nil for
	// heap-assembled operators.
	Backing any

	// AssemblyScheme records which scheme built the weights, AssemblyWall
	// how long assembly took, and AssemblyCounters the exact geometry work
	// it performed — the amortised cost the break-even analysis divides by
	// per-field savings.
	AssemblyScheme   string
	AssemblyWall     time.Duration
	AssemblyCounters metrics.Counters
}

// TemplateSet is the shared-stencil side table. All arrays are fixed-width
// records so the artifact container can mmap them like the row arrays.
type TemplateSet struct {
	// Template t's weights are TplVal[TplPtr[t]:TplPtr[t+1]] and its
	// element-id deltas, relative to the templated row's base element, the
	// BlockDelta span at the same bounds divided by BasisN. Deltas ascend
	// within a template; the first is 0.
	TplPtr     []int64
	BlockDelta []int32
	TplVal     []float64

	// RowTpl maps each storage row to its template id, or -1 for rows
	// stored directly. RowBase holds a templated row's first column
	// (base element × BasisN); 0 for direct rows.
	RowTpl  []int32
	RowBase []int32
}

// NumTemplates returns the number of shared templates.
func (ts *TemplateSet) NumTemplates() int {
	if ts == nil || len(ts.TplPtr) == 0 {
		return 0
	}
	return len(ts.TplPtr) - 1
}

// TemplatedRows counts rows resolved through a template.
func (ts *TemplateSet) TemplatedRows() int {
	if ts == nil {
		return 0
	}
	n := 0
	for _, t := range ts.RowTpl {
		if t >= 0 {
			n++
		}
	}
	return n
}

// Bytes returns the resident size of the template arrays.
func (ts *TemplateSet) Bytes() int64 {
	if ts == nil {
		return 0
	}
	return int64(len(ts.TplPtr))*8 + int64(len(ts.BlockDelta))*4 + int64(len(ts.TplVal))*8 +
		int64(len(ts.RowTpl))*4 + int64(len(ts.RowBase))*4
}

// rowBlocks is the one row accessor: storage row r's terms are
//
//	vals[b·BasisN+m] · coeffs[(baseElem+ids[b])·BasisN + m]
//
// Direct rows return their Val span with their BlockID slice and base
// element 0; templated rows return the shared template weights with its
// deltas and the row's base element. Both kernels consume rows through
// this accessor, so templated and direct rows follow identical arithmetic.
func (op *Operator) rowBlocks(r int) (vals []float64, ids []int32, baseElem int32) {
	bn := int64(op.BasisN)
	if ts := op.Tpl; ts != nil {
		if t := ts.RowTpl[r]; t >= 0 {
			lo, hi := ts.TplPtr[t], ts.TplPtr[t+1]
			return ts.TplVal[lo:hi], ts.BlockDelta[lo/bn : hi/bn], ts.RowBase[r] / int32(bn)
		}
	}
	lo, hi := op.RowPtr[r], op.RowPtr[r+1]
	return op.Val[lo:hi], op.BlockID[lo/bn : hi/bn], 0
}

// Row returns storage row r as its logical entries: the ascending absolute
// element ids (appended to elems[:0]) and the BasisN weights per element.
// vals aliases operator storage and must not be written. It is the
// read-only view tests and tools compare operators through; the kernels
// use rowBlocks directly.
func (op *Operator) Row(r int, elems []int32) ([]int32, []float64) {
	vals, ids, base := op.rowBlocks(r)
	elems = elems[:0]
	for _, id := range ids {
		elems = append(elems, base+id)
	}
	return elems, vals
}

// NNZ returns the logical number of entries — the terms one apply
// multiplies — counting each templated row's shared entries once per row.
func (op *Operator) NNZ() int {
	n := len(op.Val)
	if ts := op.Tpl; ts != nil {
		for _, t := range ts.RowTpl {
			if t >= 0 {
				n += int(ts.TplPtr[t+1] - ts.TplPtr[t])
			}
		}
	}
	return n
}

// Bytes returns the resident size of the row and template arrays.
func (op *Operator) Bytes() int64 {
	return int64(len(op.Val))*8 + int64(len(op.BlockID))*4 +
		int64(len(op.RowPtr))*8 + int64(len(op.Perm))*4 + op.Tpl.Bytes()
}

// BytesSaved returns how many resident bytes template sharing saves
// against storing every row directly (0 without templates; never negative,
// since Builder.Finish only keeps a net-saving template set).
func (op *Operator) BytesSaved() int64 {
	if op.Tpl == nil {
		return 0
	}
	nnz := int64(op.NNZ())
	direct := nnz*8 + nnz/int64(op.BasisN)*4 + int64(len(op.RowPtr))*8 + int64(len(op.Perm))*4
	return max(direct-op.Bytes(), 0)
}

// Stats is the shape summary unstencil-artifact reports.
type Stats struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	NNZ       int     `json:"nnz"`
	Bytes     int64   `json:"bytes"`
	NNZPerRow float64 `json:"nnz_per_row"`

	// Template sharing shape; zero without templates. StoredNNZ counts the
	// physically stored weights: direct rows plus one copy per template.
	StoredNNZ     int `json:"stored_nnz,omitempty"`
	Templates     int `json:"templates,omitempty"`
	TemplatedRows int `json:"templated_rows,omitempty"`
}

// Stats summarises the operator's shape.
func (op *Operator) Stats() Stats {
	s := Stats{Rows: op.Rows, Cols: op.Cols, NNZ: op.NNZ(), Bytes: op.Bytes()}
	if op.Rows > 0 {
		s.NNZPerRow = float64(s.NNZ) / float64(op.Rows)
	}
	if ts := op.Tpl; ts != nil {
		s.StoredNNZ = len(op.Val) + len(ts.TplVal)
		s.Templates = ts.NumTemplates()
		s.TemplatedRows = ts.TemplatedRows()
	}
	return s
}

// Validate checks every structural invariant the kernels index by, against
// the operator's own shape fields. The artifact decoders run it on every
// loaded operator before returning it, so a corrupted or hostile container
// cannot drive rowBlocks or a coefficient gather out of bounds.
func (op *Operator) Validate() error {
	if op.BasisN < 1 || op.Rows < 0 || op.Cols < 0 || op.Cols%op.BasisN != 0 {
		return fmt.Errorf("operator: shape %d×%d with basisN %d", op.Rows, op.Cols, op.BasisN)
	}
	bn := int64(op.BasisN)
	nElems := int64(op.Cols) / bn
	if len(op.RowPtr) != op.Rows+1 {
		return fmt.Errorf("operator: rowptr has %d entries for %d rows", len(op.RowPtr), op.Rows)
	}
	if op.RowPtr[0] != 0 || op.RowPtr[op.Rows] != int64(len(op.Val)) {
		return fmt.Errorf("operator: rowptr spans [%d, %d], want [0, %d]",
			op.RowPtr[0], op.RowPtr[op.Rows], len(op.Val))
	}
	for r, p := range op.RowPtr {
		if p%bn != 0 {
			return fmt.Errorf("operator: rowptr[%d]=%d not a multiple of basisN %d", r, p, bn)
		}
		if r > 0 && p < op.RowPtr[r-1] {
			return fmt.Errorf("operator: rowptr not monotone at row %d", r-1)
		}
	}
	if int64(len(op.BlockID))*bn != int64(len(op.Val)) {
		return fmt.Errorf("operator: %d blocks × basisN %d disagree with %d values",
			len(op.BlockID), bn, len(op.Val))
	}
	for k, e := range op.BlockID {
		if e < 0 || int64(e) >= nElems {
			return fmt.Errorf("operator: block %d element id %d outside [0, %d)", k, e, nElems)
		}
	}
	if op.Perm != nil {
		if len(op.Perm) != op.Rows {
			return fmt.Errorf("operator: perm has %d entries for %d rows", len(op.Perm), op.Rows)
		}
		for i, p := range op.Perm {
			if p < 0 || int(p) >= op.Rows {
				return fmt.Errorf("operator: perm[%d]=%d outside [0, %d)", i, p, op.Rows)
			}
		}
	}
	ts := op.Tpl
	if ts == nil {
		return nil
	}
	nt := ts.NumTemplates()
	if len(ts.TplPtr) == 0 || ts.TplPtr[0] != 0 {
		return fmt.Errorf("operator: template pointer array must start at 0")
	}
	if int64(len(ts.BlockDelta))*bn != ts.TplPtr[nt] || int64(len(ts.TplVal)) != ts.TplPtr[nt] {
		return fmt.Errorf("operator: template arrays disagree: ptr end %d, %d block deltas × basisN %d, %d values",
			ts.TplPtr[nt], len(ts.BlockDelta), bn, len(ts.TplVal))
	}
	for t := 0; t < nt; t++ {
		if ts.TplPtr[t] > ts.TplPtr[t+1] {
			return fmt.Errorf("operator: template %d has negative length", t)
		}
		if ts.TplPtr[t]%bn != 0 {
			return fmt.Errorf("operator: template %d starts at %d, not a multiple of basisN %d", t, ts.TplPtr[t], bn)
		}
	}
	if len(ts.RowTpl) != op.Rows || len(ts.RowBase) != op.Rows {
		return fmt.Errorf("operator: template row tables have %d/%d entries, operator has %d rows",
			len(ts.RowTpl), len(ts.RowBase), op.Rows)
	}
	for r := 0; r < op.Rows; r++ {
		t := ts.RowTpl[r]
		if t < 0 {
			continue
		}
		if int(t) >= nt {
			return fmt.Errorf("operator: row %d references template %d of %d", r, t, nt)
		}
		if op.RowPtr[r] != op.RowPtr[r+1] {
			return fmt.Errorf("operator: templated row %d still stores its own entries", r)
		}
		base := int64(ts.RowBase[r])
		if base%bn != 0 {
			return fmt.Errorf("operator: row %d base column %d not a multiple of basisN %d", r, base, bn)
		}
		for i := ts.TplPtr[t] / bn; i < ts.TplPtr[t+1]/bn; i++ {
			if e := base/bn + int64(ts.BlockDelta[i]); e < 0 || e >= nElems {
				return fmt.Errorf("operator: row %d template element %d out of range [0,%d)", r, e, nElems)
			}
		}
	}
	return nil
}

// CongruenceStats records what congruence-first assembly did: how much
// quadrature it skipped (stamped rows), how much it spent proving the skips
// sound (verified rows), and where it fell back (demoted rows).
type CongruenceStats struct {
	// Rows is the operator's storage row count, Classes the number of
	// multi-member signature classes the prefilter found.
	Rows    int `json:"rows"`
	Classes int `json:"classes"`
	// RowsIntegrated counts rows that ran full quadrature: class
	// representatives, signature singletons, and verified/demoted members.
	RowsIntegrated int `json:"rows_integrated"`
	// RowsStamped counts rows whose weights were copied from their class
	// representative without quadrature — the compute the path saves.
	// Stamping requires bit-identical stencil-local geometry, so stamped
	// rows equal their naively assembled twins bitwise.
	RowsStamped int `json:"rows_stamped"`
	// RowsVerified counts quantised-match members that were fully
	// integrated and found bitwise equal to the representative's stamp:
	// no quadrature saved, but the row still shares the class template.
	RowsVerified int `json:"rows_verified"`
	// RowsDemoted counts members whose verification failed (or whose
	// candidate shape diverged from the representative): they keep their
	// own integrated weights as directly stored rows.
	RowsDemoted int `json:"rows_demoted"`
	// ClassesVerified / ClassesDemoted count classes containing at least
	// one verified / demoted member.
	ClassesVerified int `json:"classes_verified"`
	ClassesDemoted  int `json:"classes_demoted"`
	// SignatureWall is the time spent in the signature prefilter (hash
	// pass + grouping), the overhead the demotion acceptance bound caps.
	SignatureWall time.Duration `json:"signature_wall_ns"`
	// ProbeRows counts the sample rows the adaptive congruence probe
	// actually hashed before deciding (0 = the operator was small enough
	// to skip the probe). The probe escalates through stages, exiting
	// early when repetition is obvious or provably absent, so structured
	// meshes commit after the first stage and jittered meshes pay for
	// the smallest stage only. ProbeCongruent reports whether the
	// congruence schedule was taken: false means the sample showed almost
	// no repeated signatures and assembly integrated every row
	// independently, paying only the probe.
	ProbeRows      int  `json:"probe_rows"`
	ProbeCongruent bool `json:"probe_congruent"`
	// SigCacheLookups / SigCacheHits count row-signature canonicalisation
	// requests answered by a caller-provided SignatureCache. A hit skips
	// the stencil walk + canonicalisation for that row during the hash
	// pass; correctness never depends on the cache because quantised
	// matches are still certified bitwise downstream.
	SigCacheLookups int64 `json:"sig_cache_lookups,omitempty"`
	SigCacheHits    int64 `json:"sig_cache_hits,omitempty"`
}
