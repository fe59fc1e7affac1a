package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// OperatorCounters tracks the assembled-operator apply traffic and how
// the congruence-first assemblies behind it went.
// All fields are atomics: applies run concurrently on job workers and
// query goroutines.
type OperatorCounters struct {
	// SingleApplies counts one-field applies (ApplyVec/ApplyInto paths).
	SingleApplies atomic.Uint64
	// BlockApplies counts batched multi-field applies (ApplyBlock paths).
	BlockApplies atomic.Uint64
	// FieldsApplied counts total fields post-processed across both paths;
	// FieldsApplied / (SingleApplies + BlockApplies) is the mean batch
	// width the SpMM is amortising the operator stream over.
	FieldsApplied atomic.Uint64

	// RowsTotal accumulates the storage rows of every operator admitted to
	// the cache, assembled or loaded from disk.
	RowsTotal atomic.Uint64

	// SigCacheLookups / SigCacheHits accumulate the cross-assembly
	// signature-cache traffic of congruence-first assemblies: a hit skips
	// one row's canonicalisation when a variant operator (different grid
	// degree or boundary) re-hashes the same mesh.
	SigCacheLookups atomic.Uint64
	SigCacheHits    atomic.Uint64

	// Congruence-first assembly outcomes, accumulated per assembled
	// operator: rows that ran quadrature vs rows stamped from a class
	// representative, and classes with a member that failed certification
	// (a signature hash collision) and was integrated on its own.
	RowsAssembled  atomic.Uint64
	RowsStamped    atomic.Uint64
	ClassesDemoted atomic.Uint64
	// AssemblyWallEWMA holds an exponentially weighted moving average of
	// assembly wall time in milliseconds, as float64 bits (CAS-updated:
	// assemblies can finish concurrently on job workers).
	AssemblyWallEWMA atomic.Uint64
}

// assemblyWallAlpha weights the newest assembly at 1/4 — smooth enough to
// ride out cache-admission bursts, fresh enough to track a mesh change.
const assemblyWallAlpha = 0.25

// RecordAssembly folds one congruence-first assembly outcome into the
// counters.
func (o *OperatorCounters) RecordAssembly(rowsAssembled, rowsStamped, classesDemoted int, wall time.Duration) {
	o.RowsAssembled.Add(uint64(rowsAssembled))
	o.RowsStamped.Add(uint64(rowsStamped))
	o.ClassesDemoted.Add(uint64(classesDemoted))
	ms := float64(wall) / float64(time.Millisecond)
	for {
		old := o.AssemblyWallEWMA.Load()
		prev := math.Float64frombits(old)
		next := ms
		if old != 0 {
			next = prev + assemblyWallAlpha*(ms-prev)
		}
		if o.AssemblyWallEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RecordApply folds one apply of nf fields into the counters.
func (o *OperatorCounters) RecordApply(nf int) {
	if nf <= 1 {
		o.SingleApplies.Add(1)
	} else {
		o.BlockApplies.Add(1)
	}
	o.FieldsApplied.Add(uint64(nf))
}

// RecordSigCache folds one assembly's signature-cache traffic into the
// counters.
func (o *OperatorCounters) RecordSigCache(lookups, hits int64) {
	if lookups > 0 {
		o.SigCacheLookups.Add(uint64(lookups))
	}
	if hits > 0 {
		o.SigCacheHits.Add(uint64(hits))
	}
}

// OperatorSnapshot is the JSON view of OperatorCounters.
type OperatorSnapshot struct {
	SingleApplies uint64 `json:"single_applies"`
	BlockApplies  uint64 `json:"block_applies"`
	FieldsApplied uint64 `json:"fields_applied"`
	RowsTotal     uint64 `json:"rows_total"`

	SigCacheLookups uint64  `json:"sig_cache_lookups"`
	SigCacheHits    uint64  `json:"sig_cache_hits"`
	SigCacheHitRate float64 `json:"sig_cache_hit_rate"`

	RowsAssembled      uint64  `json:"rows_assembled"`
	RowsStamped        uint64  `json:"rows_stamped"`
	StampRate          float64 `json:"stamp_rate"`
	ClassesDemoted     uint64  `json:"classes_demoted"`
	AssemblyWallEWMAMs float64 `json:"assembly_wall_ewma_ms"`
}

// Snapshot reads all counters at one (non-atomic across fields) instant.
func (o *OperatorCounters) Snapshot() OperatorSnapshot {
	s := OperatorSnapshot{
		SingleApplies:      o.SingleApplies.Load(),
		BlockApplies:       o.BlockApplies.Load(),
		FieldsApplied:      o.FieldsApplied.Load(),
		RowsTotal:          o.RowsTotal.Load(),
		SigCacheLookups:    o.SigCacheLookups.Load(),
		SigCacheHits:       o.SigCacheHits.Load(),
		RowsAssembled:      o.RowsAssembled.Load(),
		RowsStamped:        o.RowsStamped.Load(),
		ClassesDemoted:     o.ClassesDemoted.Load(),
		AssemblyWallEWMAMs: math.Float64frombits(o.AssemblyWallEWMA.Load()),
	}
	if total := s.RowsAssembled + s.RowsStamped; total > 0 {
		s.StampRate = float64(s.RowsStamped) / float64(total)
	}
	if s.SigCacheLookups > 0 {
		s.SigCacheHitRate = float64(s.SigCacheHits) / float64(s.SigCacheLookups)
	}
	return s
}
