package metrics

// FaultCounters tracks the fault-tolerance layer's recovery activity:
// panics converted to errors, retries of tiles and of artifact stages, tiles
// that exhausted their retry budget, jobs completed degraded, and jobs
// re-enqueued from the crash-recovery journal. All fields are atomic so the
// evaluation workers, the job manager and the HTTP layer can share one
// instance without locking.
type FaultCounters struct {
	// PanicsRecovered counts panics caught by a recovery layer (per-tile,
	// per-block, job worker, or HTTP middleware) and converted into errors.
	PanicsRecovered Counter `json:"panics_recovered"`
	// TileRetries counts per-tile / per-block attempt repeats inside one
	// evaluation.
	TileRetries Counter `json:"tile_retries"`
	// JobRetries counts artifact-stage retries.
	JobRetries Counter `json:"job_retries"`
	// TilesFailed counts tiles/blocks that exhausted their retry budget.
	TilesFailed Counter `json:"tiles_failed"`
	// DegradedJobs counts jobs completed with partial coverage.
	DegradedJobs Counter `json:"degraded_jobs"`
	// JobsReplayed counts jobs re-enqueued from the journal after a restart.
	JobsReplayed Counter `json:"jobs_replayed"`
}
