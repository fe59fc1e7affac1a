package metrics

import "time"

// OperatorCounters tracks the assembled-operator apply traffic and how
// the congruence-first assemblies behind it went.
// All fields are atomics: applies run concurrently on job workers and
// query goroutines.
type OperatorCounters struct {
	// SingleApplies counts one-field applies.
	SingleApplies Counter `json:"single_applies"`
	// BlockApplies counts batched multi-field applies.
	BlockApplies Counter `json:"block_applies"`
	// FieldsApplied counts total fields post-processed across both paths;
	// FieldsApplied / (SingleApplies + BlockApplies) is the mean batch
	// width the SpMM is amortising the operator stream over.
	FieldsApplied Counter `json:"fields_applied"`

	// RowsTotal accumulates the storage rows of every operator admitted to
	// the cache, assembled or loaded from disk.
	RowsTotal Counter `json:"rows_total"`

	// Congruence-first assembly outcomes, accumulated per assembled
	// operator: rows that ran quadrature vs rows stamped from a class
	// representative, and classes with a member that failed certification
	// (a signature hash collision) and was integrated on its own.
	RowsAssembled  Counter `json:"rows_assembled"`
	RowsStamped    Counter `json:"rows_stamped"`
	ClassesDemoted Counter `json:"classes_demoted"`
	// AssemblyWallEWMA averages assembly wall time in milliseconds.
	AssemblyWallEWMA EWMA `json:"assembly_wall_ewma_ms"`
}

// RecordAssembly folds one congruence-first assembly outcome into the
// counters.
func (o *OperatorCounters) RecordAssembly(rowsAssembled, rowsStamped, classesDemoted int, wall time.Duration) {
	o.RowsAssembled.Add(uint64(rowsAssembled))
	o.RowsStamped.Add(uint64(rowsStamped))
	o.ClassesDemoted.Add(uint64(classesDemoted))
	o.AssemblyWallEWMA.Observe(float64(wall) / float64(time.Millisecond))
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
