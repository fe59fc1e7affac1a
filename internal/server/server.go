// Package server implements unstencild, a resident SIAC post-processing
// service over the paper's evaluation schemes. It exists because every
// batch entry point rebuilds meshes, dG fields, SIAC kernel tables and
// spatial grids per invocation and exits; a long-running process that keeps
// those artifacts warm across requests amortises exactly the setup the
// paper's data-reuse argument targets, and gives later scaling work
// (sharding, batching, multi-backend) a substrate to build on.
//
// The HTTP/JSON API (stdlib net/http only; http.go registers the public
// routes, which the cluster coordinator serves too):
//
//	POST   /v1/meshes          upload + decode a mesh once; returns its
//	                           content-hash id
//	GET    /v1/meshes/{id}     stats of a resident mesh
//	POST   /v1/jobs            submit a post-processing job (JobSpec)
//	GET    /v1/jobs            list retained jobs
//	GET    /v1/jobs/{id}       job status + exact counters
//	GET    /v1/jobs/{id}/result  {"solutions": one array per field}
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/shard/eval      patch-scoped partial evaluation (cluster
//	                           shard mode; see shard.go)
//	GET    /healthz            liveness
//	GET    /readyz             readiness: startup work done, queue below
//	                           saturation (what the coordinator polls)
//	GET    /debug/metrics      queue depth, workers busy, cache hit rate,
//	                           cumulative per-scheme counters
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/fault"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

// Config sizes the service; zero fields take the documented defaults.
type Config struct {
	// Workers is the job worker pool size (default 2).
	Workers int
	// QueueSize bounds the FIFO job queue (default 64); submissions beyond
	// it receive 503.
	QueueSize int
	// CacheBytes bounds the artifact cache (default 256 MiB).
	CacheBytes int64
	// MaxBodyBytes bounds request bodies, mesh uploads included
	// (default 32 MiB).
	MaxBodyBytes int64
	// JobTimeout caps each job's evaluation time (default 5m).
	JobTimeout time.Duration
	// DefaultBlocks is the blocks/patches default for jobs that omit it
	// (default 16).
	DefaultBlocks int
	// EvalWorkers bounds each evaluation's internal concurrency;
	// 0 means GOMAXPROCS.
	EvalWorkers int
	// StateDir, when set, enables crash recovery: accepted jobs are recorded
	// in a fsynced journal and uploaded meshes persisted to disk, and on
	// startup incomplete jobs are re-enqueued. Empty disables durability.
	StateDir string
	// StoreDir roots the persistent artifact store (meshes, assembled
	// operators). Precedence: an explicit StoreDir wins; otherwise, with
	// StateDir set, the store lives at <StateDir>/store so journal replay
	// re-uses disk-resident artifacts; with neither set there is no disk
	// tier. StoreDir alone enables artifact persistence without journaling.
	StoreDir string
	// Retry shapes the retry of transient failures: of each evaluation
	// unit (a per-point block or a per-element patch), and of a job's
	// artifact stage (zero value: no retry).
	Retry fault.Policy
	// Log receives structured request and job logs; nil disables logging.
	Log *slog.Logger
}

func (c *Config) defaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.DefaultBlocks <= 0 {
		c.DefaultBlocks = 16
	}
}

// Server is the local Backend — a resident artifact cache and a job
// manager evaluating on this process — plus its HTTP handler.
type Server struct {
	cfg      Config
	arts     *Artifacts
	mgr      *Manager
	journal  *Journal
	faults   *metrics.FaultCounters
	storeCtr metrics.StoreCounters
	log      *slog.Logger
	handler  http.Handler
	// ready flips once startup work (journal replay, artifact-store GC) has
	// completed; /readyz additionally requires the job queue to be below
	// saturation. Distinct from /healthz liveness, which is true the moment
	// the process serves HTTP.
	ready atomic.Bool
}

// New assembles the artifact cache, job manager and routes. With
// cfg.StateDir set it also opens the durable mesh store and the job journal,
// and re-enqueues jobs that were accepted but unfinished when the previous
// process died.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:    cfg,
		arts:   NewArtifacts(NewCache(cfg.CacheBytes), cfg.EvalWorkers),
		faults: &metrics.FaultCounters{},
		log:    cfg.Log,
	}
	s.arts.SetLog(cfg.Log)
	storeDir := cfg.StoreDir
	if storeDir == "" && cfg.StateDir != "" {
		storeDir = filepath.Join(cfg.StateDir, "store")
	}
	if storeDir != "" {
		store, err := artifact.NewStore(storeDir, &s.storeCtr)
		if err != nil {
			return nil, err
		}
		s.arts.SetStore(store)
	}
	var pending []PendingJob
	if cfg.StateDir != "" {
		var err error
		s.journal, pending, err = OpenJournal(cfg.StateDir)
		if err != nil {
			return nil, err
		}
	}
	s.mgr = NewManager(cfg.Log, ManagerConfig{
		Workers:      cfg.Workers,
		QueueSize:    cfg.QueueSize,
		JobTimeout:   cfg.JobTimeout,
		DefaultBlock: cfg.DefaultBlocks,
		Journal:      s.journal,
		Faults:       s.faults,
		Eval:         s.evaluate,
	})
	s.mgr.Replay(pending, func(spec JobSpec) error {
		if _, ok := s.arts.Mesh(spec.MeshID); !ok {
			return fmt.Errorf("mesh %q not recoverable after restart: %w", spec.MeshID, ErrMeshNotFound)
		}
		return nil
	})

	// The shard-mode routes a cluster coordinator drives (shard.go) sit
	// beside the public ones.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/eval", func(w http.ResponseWriter, r *http.Request) {
		resp, err := s.shardEval(r)
		reply(w, http.StatusOK, resp, err)
	})
	s.handler = NewHandler(s, mux, cfg.MaxBodyBytes, cfg.Log, s.faults)
	// Startup work — journal replay and artifact-store GC — happens
	// synchronously above, so by this point the process is ready modulo
	// queue saturation, which Readiness re-checks per request.
	s.ready.Store(true)
	return s, nil
}

// Close releases durable-state resources (the journal file). It does not
// stop the job manager; call Manager().Shutdown first.
func (s *Server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Faults exposes the shared recovery counters (metrics endpoint, tests).
func (s *Server) Faults() *metrics.FaultCounters { return s.faults }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Manager exposes the job manager (shutdown, tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Artifacts exposes the artifact cache façade (tests, embedding servers).
func (s *Server) Artifacts() *Artifacts { return s.arts }

// PutMesh implements Backend: the mesh becomes resident under its content
// hash.
func (s *Server) PutMesh(_ context.Context, m *mesh.Mesh, _ []byte) (any, error) {
	id, err := s.arts.PutMesh(m)
	if err != nil && s.log != nil {
		// The mesh is resident in memory; losing the durable copy only
		// weakens crash recovery, so serve degraded rather than reject.
		s.log.Warn("mesh not persisted; jobs on it will not survive a restart",
			"mesh", id, "err", err)
	}
	return map[string]any{
		"mesh_id":   id,
		"num_tris":  m.NumTris(),
		"num_verts": m.NumVerts(),
	}, nil
}

// MeshInfo implements Backend.
func (s *Server) MeshInfo(_ context.Context, id string) (any, error) {
	m, ok := s.arts.Mesh(id)
	if !ok {
		return nil, Errorf(http.StatusNotFound, "mesh %q not resident", id)
	}
	return MeshStats(id, m), nil
}

// MeshStats is the GET /v1/meshes/{id} body for mesh m stored as id.
func MeshStats(id string, m *mesh.Mesh) map[string]any {
	st := m.Stats()
	return map[string]any{
		"mesh_id":      id,
		"num_tris":     st.NumTris,
		"num_verts":    st.NumVerts,
		"longest_edge": st.MaxEdge,
		"edge_cv":      st.CV,
		"min_angle":    st.MinAngleDeg,
		"total_area":   st.TotalArea,
	}
}

// Submit implements Backend: a valid spec on a resident mesh is queued.
func (s *Server) Submit(_ context.Context, spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(s.cfg.DefaultBlocks); err != nil {
		return JobStatus{}, Errorf(http.StatusBadRequest, "bad job spec: %v", err)
	}
	if _, ok := s.arts.Mesh(spec.MeshID); !ok {
		return JobStatus{}, &Error{Status: http.StatusNotFound, Err: fmt.Errorf(
			"mesh %q not resident (upload it via POST /v1/meshes): %w", spec.MeshID, ErrMeshNotFound)}
	}
	job, err := s.mgr.Submit(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return job.Status(), nil
}

// Status implements Backend.
func (s *Server) Status(_ context.Context, id string) (JobStatus, error) { return s.mgr.Status(id) }

// Jobs implements Backend.
func (s *Server) Jobs(context.Context) []JobStatus { return s.mgr.Jobs() }

// Result implements Backend.
func (s *Server) Result(_ context.Context, id string) ([]byte, error) { return s.mgr.Result(id) }

// Cancel implements Backend.
func (s *Server) Cancel(_ context.Context, id string) error { return s.mgr.Cancel(id) }

// readiness reports whether the service should receive traffic: startup
// work (journal replay, artifact-store GC) done and the job queue below
// saturation. A full queue is honest back-pressure — the coordinator's
// health checker treats it as "alive but do not route new work here".
func readiness(started bool, depth, capacity int) (bool, string) {
	switch {
	case !started:
		return false, "startup (journal replay, store GC) in progress"
	case depth >= capacity:
		return false, fmt.Sprintf("job queue saturated (%d/%d)", depth, capacity)
	default:
		return true, ""
	}
}

// Readiness implements Backend: replayed state loaded and a queue that can
// absorb a submission.
func (s *Server) Readiness() (bool, map[string]any, int) {
	depth, capacity := s.mgr.QueueDepth(), s.mgr.QueueCapacity()
	ready, reason := readiness(s.ready.Load(), depth, capacity)
	body := map[string]any{
		"ready":          ready,
		"started":        s.ready.Load(),
		"queue_depth":    depth,
		"queue_capacity": capacity,
	}
	if reason != "" {
		body["reason"] = reason
	}
	return ready, body, s.mgr.RetryAfterSeconds()
}

// Metrics implements Backend: queue, cache, per-scheme and fault counters.
// The counter sets go in live: each marshals its own atomics.
func (s *Server) Metrics() map[string]any {
	cache := s.arts.Stats()
	body := map[string]any{
		"queue_depth":    s.mgr.QueueDepth(),
		"queue_capacity": s.mgr.QueueCapacity(),
		"workers":        s.mgr.Workers(),
		"workers_busy":   s.mgr.Busy(),
		"jobs":           s.mgr.StateCounts(),
		"cache":          cache,
		"cache_hit_rate": cache.HitRate(),
		// Per-class residency: the "op"/"qop" rows are the assembled-operator
		// LRU accounting (resident bytes, cumulative evictions).
		"cache_classes": s.arts.cache.StatsByClass(),
		"schemes":       s.mgr.Totals(),
		"faults":        s.faults,
		// Assembled-operator traffic: batched vs single applies, rows
		// admitted, and how congruence-first assembly went (rows stamped vs
		// integrated, classes with a demoted member, assembly wall EWMA).
		"operator": s.arts.Ops(),
	}
	if st := s.arts.Store(); st != nil {
		body["store"] = st.Counters()
		body["store_dir"] = st.Dir()
	}
	if fault.Enabled() {
		body["fault_injection"] = fault.Stats()
	}
	return body
}
