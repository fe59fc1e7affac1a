package metrics

// ClusterCounters tracks the coordinator's routing and robustness activity:
// traffic routed to shards, retries and Retry-After waits against
// individual shards, hedged reads and which ones won, failovers to
// alternate shards, mesh re-seeds of amnesiac shards, and jobs completed
// degraded because a shard stayed down past its budget. All
// fields are atomic so the request handlers, the distributed-job workers
// and the health checker share one instance without locking.
type ClusterCounters struct {
	// MeshFanouts counts mesh uploads fanned out to the shard set.
	MeshFanouts Counter `json:"mesh_fanouts"`
	// MeshReseeds counts meshes re-uploaded to a shard that answered a
	// request "mesh not resident" (a restarted shard without a persistent
	// store): one per such answer, the request's mesh only.
	MeshReseeds Counter `json:"mesh_reseeds"`
	// QueriesRouted counts /v1/query requests forwarded to a shard.
	QueriesRouted Counter `json:"queries_routed"`
	// JobsRouted counts whole jobs forwarded to a single shard
	// (per-point and operator schemes).
	JobsRouted Counter `json:"jobs_routed"`
	// JobsDistributed counts per-element jobs fanned out as patch sets.
	JobsDistributed Counter `json:"jobs_distributed"`
	// ShardRequests counts every HTTP request sent to a shard.
	ShardRequests Counter `json:"shard_requests"`
	// Retries counts re-attempts of a shard request after a transient
	// failure (transport error or 5xx).
	Retries Counter `json:"retries"`
	// RetryAfterWaits counts retries that honored a server-provided
	// Retry-After delay instead of the default backoff.
	RetryAfterWaits Counter `json:"retry_after_waits"`
	// Hedges counts hedged duplicate reads launched after the hedge delay.
	Hedges Counter `json:"hedges"`
	// HedgeWins counts hedged reads that finished before the primary.
	HedgeWins Counter `json:"hedge_wins"`
	// Failovers counts work moved to an alternate shard after the primary
	// exhausted its retry budget.
	Failovers Counter `json:"failovers"`
	// ShardFailures counts shard interactions that exhausted retries.
	ShardFailures Counter `json:"shard_failures"`
	// DegradedJobs counts cluster jobs completed with partial coverage.
	DegradedJobs Counter `json:"degraded_jobs"`
}
