package metrics

// StoreCounters is the telemetry of the persistent artifact store: the
// disk tier under the in-memory LRU. DiskHits are cache misses answered
// from disk instead of recomputation — the warm-cold-start effect the
// store exists for.
type StoreCounters struct {
	// DiskHits counts loads served from a stored artifact.
	DiskHits Counter `json:"disk_hits"`
	// DiskMisses counts loads where no (valid) artifact was on disk and
	// the artifact had to be recomputed.
	DiskMisses Counter `json:"disk_misses"`
	// CorruptRejected counts stored artifacts refused at load time (CRC,
	// key, or hash mismatch) and deleted.
	CorruptRejected Counter `json:"corrupt_rejected"`
	// Writes counts artifacts persisted.
	Writes Counter `json:"writes"`
	// WriteErrors counts failed persists (the artifact stays resident;
	// only durability degrades).
	WriteErrors Counter `json:"write_errors"`
	// BytesWritten accumulates encoded artifact bytes written.
	BytesWritten Counter `json:"bytes_written"`
	// TornFilesGCd counts files removed by startup GC (interrupted
	// writes, undecodable headers).
	TornFilesGCd Counter `json:"torn_files_gcd"`
}
