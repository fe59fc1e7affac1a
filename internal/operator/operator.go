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
// whole elements, so a lone column never occurs). Each block is a pair
// (element id, value-block id): BlockID names the coefficient block it
// multiplies, BlockRef names its BasisN weights in Pool, where every
// bitwise-distinct weight block is stored once. The inner mode loop of both
// kernels is unit-stride over the pooled weights and over the gathered
// coefficient block.
//
// The pool is what makes the assembled form small. A stencil's weights
// depend only on the local geometry it covers, so on a (near-)structured
// mesh translated rows repeat whole weight blocks: the P2 operator of a
// 16×16 structured mesh holds 1,093,120 blocks but only 16,589 distinct
// ones. Builder
// interns blocks by bit pattern, so sharing is deduplicated storage, never
// different arithmetic: an apply reads the same weights in the same order
// as if every block were stored in place.
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

	// RowPtr has Rows+1 entries in units of blocks: storage row r owns
	// blocks RowPtr[r] to RowPtr[r+1]-1 of BlockID and BlockRef.
	RowPtr []int64
	// BlockID holds one element id per block, ascending within a row:
	// block k multiplies the coefficients of element BlockID[k].
	BlockID []int32
	// BlockRef holds one value-block id per block: block k's weights are
	// Pool[BlockRef[k]·BasisN:][:BasisN].
	BlockRef []int32
	// Pool holds each bitwise-distinct weight block once, modes ascending
	// within a block, in order of first use over the storage rows.
	Pool []float64

	// Perm maps storage row r to the evaluation-point index it computes;
	// nil means identity. Assembly in Morton order stores spatially
	// neighbouring points in adjacent rows, so consecutive rows gather
	// nearby (often identical) coefficient blocks.
	Perm []int32

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

// rowBlocks is the one row accessor: storage row r's terms are
//
//	Pool[refs[b]·BasisN+m] · coeffs[ids[b]·BasisN+m]
//
// for its blocks b and modes m. Both kernels consume rows through it.
func (op *Operator) rowBlocks(r int) (ids, refs []int32) {
	lo, hi := op.RowPtr[r], op.RowPtr[r+1]
	return op.BlockID[lo:hi], op.BlockRef[lo:hi]
}

// Row returns storage row r as its logical entries: the ascending element
// ids (appended to elems[:0]) and the BasisN weights per element (appended
// to vals[:0]). It is the read-only view tests and tools compare operators
// through; the kernels use rowBlocks directly.
func (op *Operator) Row(r int, elems []int32, vals []float64) ([]int32, []float64) {
	ids, refs := op.rowBlocks(r)
	bn := op.BasisN
	elems, vals = append(elems[:0], ids...), vals[:0]
	for _, ref := range refs {
		vals = append(vals, op.Pool[int(ref)*bn:][:bn]...)
	}
	return elems, vals
}

// NNZ returns the logical number of entries — the terms one apply
// multiplies — counting a shared weight block once per block that uses it.
func (op *Operator) NNZ() int {
	return len(op.BlockID) * op.BasisN
}

// Bytes returns the resident size of the operator's arrays.
func (op *Operator) Bytes() int64 {
	return int64(len(op.RowPtr))*8 + int64(len(op.BlockID))*4 + int64(len(op.BlockRef))*4 +
		int64(len(op.Pool))*8 + int64(len(op.Perm))*4
}

// Stats is the shape summary unstencil-artifact reports.
type Stats struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	NNZ       int     `json:"nnz"`
	Bytes     int64   `json:"bytes"`
	NNZPerRow float64 `json:"nnz_per_row"`
	// UniqueBlocks is the number of distinct weight blocks in the pool.
	UniqueBlocks int `json:"unique_blocks"`
}

// Stats summarises the operator's shape.
func (op *Operator) Stats() Stats {
	s := Stats{Rows: op.Rows, Cols: op.Cols, NNZ: op.NNZ(), Bytes: op.Bytes(),
		UniqueBlocks: len(op.Pool) / op.BasisN}
	if op.Rows > 0 {
		s.NNZPerRow = float64(s.NNZ) / float64(op.Rows)
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
	nElems := int64(op.Cols / op.BasisN)
	if len(op.RowPtr) != op.Rows+1 {
		return fmt.Errorf("operator: rowptr has %d entries for %d rows", len(op.RowPtr), op.Rows)
	}
	if op.RowPtr[0] != 0 || op.RowPtr[op.Rows] != int64(len(op.BlockID)) {
		return fmt.Errorf("operator: rowptr spans [%d, %d], want [0, %d]",
			op.RowPtr[0], op.RowPtr[op.Rows], len(op.BlockID))
	}
	for r := 1; r <= op.Rows; r++ {
		if op.RowPtr[r] < op.RowPtr[r-1] {
			return fmt.Errorf("operator: rowptr not monotone at row %d", r-1)
		}
	}
	if len(op.BlockRef) != len(op.BlockID) {
		return fmt.Errorf("operator: %d value refs for %d blocks", len(op.BlockRef), len(op.BlockID))
	}
	if len(op.Pool)%op.BasisN != 0 {
		return fmt.Errorf("operator: pool of %d values is not whole blocks of basisN %d", len(op.Pool), op.BasisN)
	}
	for k, e := range op.BlockID {
		if e < 0 || int64(e) >= nElems {
			return fmt.Errorf("operator: block %d element id %d outside [0, %d)", k, e, nElems)
		}
	}
	nPool := int64(len(op.Pool) / op.BasisN)
	for k, ref := range op.BlockRef {
		if ref < 0 || int64(ref) >= nPool {
			return fmt.Errorf("operator: block %d value ref %d outside [0, %d)", k, ref, nPool)
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
	return nil
}

// CongruenceStats records what congruence-first assembly did: how much
// quadrature it skipped (stamped rows) and where it fell back (demoted
// rows).
type CongruenceStats struct {
	// Rows is the operator's storage row count, Classes the number of
	// multi-member signature classes the prefilter found.
	Rows    int `json:"rows"`
	Classes int `json:"classes"`
	// RowsIntegrated counts rows that ran full quadrature: class
	// representatives, signature singletons, and demoted members.
	RowsIntegrated int `json:"rows_integrated"`
	// RowsStamped counts rows that reference their class representative's
	// weight blocks without quadrature — the compute the path saves.
	// Stamping requires bit-identical stencil-local geometry, so stamped
	// rows equal their naively assembled twins bitwise.
	RowsStamped int `json:"rows_stamped"`
	// RowsDemoted counts members whose signature hash matched but whose
	// geometry did not (a hash collision): they are integrated as their
	// own rows. ClassesDemoted counts classes with at least one.
	RowsDemoted    int `json:"rows_demoted"`
	ClassesDemoted int `json:"classes_demoted"`
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
	// pass; correctness never depends on the cache because hash matches
	// are still certified bitwise downstream.
	SigCacheLookups int64 `json:"sig_cache_lookups,omitempty"`
	SigCacheHits    int64 `json:"sig_cache_hits,omitempty"`
}
