package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/par"
	"unstencil/internal/tile"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// JobSpec is the client-facing description of a post-processing job and,
// with Points, of a query: the body of POST /v1/jobs and of POST /v1/query.
type JobSpec struct {
	// MeshID references a mesh previously uploaded via POST /v1/meshes.
	MeshID string `json:"mesh_id"`
	// Scheme is "per-point", "per-element", or "operator" (apply the
	// assembled sparse operator; assembly is cached per mesh/grid/kernel,
	// so repeated fields on a warm mesh skip geometry entirely).
	Scheme string `json:"scheme"`
	// P is the dG polynomial order (1..4).
	P int `json:"p"`
	// GridDegree selects the evaluation-grid quadrature rule; 0 means 2P,
	// negative means the one-point rule (see core.Options.GridDegree).
	GridDegree int `json:"grid_degree,omitempty"`
	// Blocks is the logical block count (per-point) or patch count
	// (per-element); 0 means the server default.
	Blocks int `json:"blocks,omitempty"`
	// Boundary is "periodic" (default) or "one-sided".
	Boundary string `json:"boundary,omitempty"`
	// Field names the analytic input field to project ("sincos" default).
	Field string `json:"field,omitempty"`
	// Fields names several input fields to post-process in one batched
	// operator apply (SpMM): the assembled operator is streamed once per
	// field tile instead of once per field. Only valid with the "operator"
	// scheme; when set, Field defaults to Fields[0] and the result carries
	// one solution per entry, in order.
	Fields []string `json:"fields,omitempty"`
	// TimeoutMS caps this job's run time; 0 means, and larger values are
	// capped at, the server's job timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// AllowPartial opts this job into graceful degradation: if some tiles or
	// blocks exhaust their retries, the job completes with their output
	// zeroed and per-tile coverage metadata instead of failing. A query has
	// no units to lose, so it accepts the key and ignores it.
	AllowPartial bool `json:"allow_partial,omitempty"`
	// Points makes the spec a query (POST /v1/query): the evaluation
	// positions, [x, y] pairs, in place of the grid. "per-point" evaluates
	// them directly; "operator" assembles an operator keyed by the content
	// hash of the batch, so every repeat (the same streamline sample set
	// against a new field each time step) is a sparse apply. Both give the
	// same bits. Any finite point is valid under periodic boundaries; under
	// one-sided ones, whose kernels are only defined for stencils centred
	// in the domain, only points of the closed unit square are.
	Points [][2]float64 `json:"points,omitempty"`
}

// Submission caps. Requests beyond them are rejected with 400 at submission
// time rather than allowed to exhaust memory mid-run.
const (
	// MaxBlocks bounds the blocks/patches a single job may request.
	MaxBlocks = 1 << 16
	// MaxGridDegree bounds the evaluation-grid quadrature degree.
	MaxGridDegree = 32
	// MaxJobFields bounds the fields batched into one operator apply.
	MaxJobFields = 32
	// MaxQueryPoints bounds the points of one query.
	MaxQueryPoints = 1 << 16
)

// Validate checks the spec and defaults it in place. Both a shard and the
// cluster coordinator run it at their front door, so a bad request is a
// 400 there instead of a failure later. query says which route the spec
// came in on: a query must carry points and a job must not, since jobs are
// journaled one line each and a full batch of points outgrows a line.
func (s *JobSpec) Validate(defaultBlocks int, query bool) error {
	switch s.Scheme {
	case "per-point", "per-element", "operator":
	default:
		return fmt.Errorf("scheme must be %q, %q or %q, got %q", "per-point", "per-element", "operator", s.Scheme)
	}
	if len(s.Fields) > 0 && s.Scheme != "operator" {
		return fmt.Errorf("fields (batched apply) requires the %q scheme, got %q", "operator", s.Scheme)
	}
	if err := checkEval(s.MeshID, s.P, s.GridDegree, &s.Boundary, &s.Field, s.Fields); err != nil {
		return err
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	if query {
		return s.checkPoints()
	}
	if len(s.Points) > 0 {
		return errors.New("points are a query: POST them to /v1/query")
	}
	if s.Blocks == 0 {
		s.Blocks = defaultBlocks
	}
	if s.Blocks < 1 {
		return fmt.Errorf("blocks must be >= 1, got %d", s.Blocks)
	}
	if s.Blocks > MaxBlocks {
		return fmt.Errorf("blocks must be <= %d, got %d", MaxBlocks, s.Blocks)
	}
	return nil
}

// checkPoints validates a query's points and the keys that do not apply to
// them: a query's values do not depend on the computation grid, so it
// shares the default-grid evaluator with jobs and has no grid_degree, and
// it is not cut into blocks or patches.
func (s *JobSpec) checkPoints() error {
	if s.Scheme == "per-element" {
		return fmt.Errorf("scheme %q does not evaluate points; use %q or %q", s.Scheme, "per-point", "operator")
	}
	if s.GridDegree != 0 {
		return fmt.Errorf("grid_degree does not apply to points, got %d", s.GridDegree)
	}
	if s.Blocks != 0 {
		return fmt.Errorf("blocks does not apply to points, got %d", s.Blocks)
	}
	if len(s.Points) == 0 {
		return errors.New("points must be non-empty")
	}
	if len(s.Points) > MaxQueryPoints {
		return fmt.Errorf("at most %d points per query, got %d", MaxQueryPoints, len(s.Points))
	}
	for i, p := range s.Points {
		if math.IsNaN(p[0]) || math.IsInf(p[0], 0) || math.IsNaN(p[1]) || math.IsInf(p[1], 0) {
			return fmt.Errorf("points[%d] is not finite", i)
		}
		if s.Boundary == "one-sided" && (p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1) {
			return fmt.Errorf("points[%d] = (%g, %g) lies outside the unit square, which one-sided boundaries require", i, p[0], p[1])
		}
	}
	return nil
}

// checkEval validates the parameters every evaluation request shares — a
// JobSpec's (Validate) and a ShardEvalRequest's (normalize) — and defaults
// boundary and field in place (field to fields[0] when several are
// batched).
func checkEval(meshID string, p, gridDegree int, boundary, field *string, fields []string) error {
	if meshID == "" {
		return errors.New("mesh_id is required")
	}
	if p < 1 || p > 4 {
		return fmt.Errorf("p must be in 1..4, got %d", p)
	}
	if gridDegree > MaxGridDegree {
		return fmt.Errorf("grid_degree must be <= %d, got %d", MaxGridDegree, gridDegree)
	}
	if *boundary == "" {
		*boundary = "periodic"
	}
	if _, err := ParseBoundary(*boundary); err != nil {
		return err
	}
	if len(fields) > MaxJobFields {
		return fmt.Errorf("at most %d fields per request, got %d", MaxJobFields, len(fields))
	}
	for i, f := range fields {
		if _, ok := FieldFuncs[f]; !ok {
			return fmt.Errorf("unknown fields[%d] %q (have %v)", i, f, FieldNames())
		}
	}
	if *field == "" && len(fields) > 0 {
		*field = fields[0]
	}
	if *field == "" {
		*field = "sincos"
	}
	if _, ok := FieldFuncs[*field]; !ok {
		return fmt.Errorf("unknown field %q (have %v)", *field, FieldNames())
	}
	return nil
}

// ParseBoundary maps a request's boundary name to its core.Boundary.
func ParseBoundary(s string) (core.Boundary, error) {
	switch s {
	case "periodic":
		return core.Periodic, nil
	case "one-sided":
		return core.OneSided, nil
	default:
		return 0, fmt.Errorf("boundary must be %q or %q, got %q", "periodic", "one-sided", s)
	}
}

// Job pipeline stages, used to attribute failures.
const (
	StageArtifacts = "artifacts" // mesh → field → evaluator → tiling builds
	StageEvaluate  = "evaluate"  // the core evaluation run
)

// JobError attributes a job failure to a pipeline stage and records how many
// times that stage ran — the artifact stage retries under the server's
// policy, the evaluate stage runs once and its units retry inside it — and
// whether the final failure was a recovered panic.
type JobError struct {
	Stage    string
	Attempts int
	Panicked bool
	Err      error
}

// Error implements error.
func (e *JobError) Error() string { return e.of("job") }

// of is the error's message for a failed what: "job" or "query".
func (e *JobError) of(what string) string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("%s %s in stage %q after %d attempt(s): %v", what, kind, e.Stage, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Outcome is what one job evaluation produced: its solutions and what the
// status view reports about how they were obtained.
type Outcome struct {
	// Solutions holds one solution per field, in the spec's field order,
	// each in Evaluator.Points order.
	Solutions [][]float64
	// Total is the run's counters.
	Total metrics.Counters
	// Wall is the evaluation's wall time.
	Wall time.Duration
	// MemoryOverhead is the partial-solution storage relative to one
	// solution (1 for the per-point and operator schemes).
	MemoryOverhead float64
	// Coverage is non-nil for a degraded run only. Its UncoveredIDs is the
	// full uncovered set; the status lists it capped at MaxUncoveredIDs.
	Coverage *core.Coverage
	// CacheHits lists the artifact kinds served warm ("evaluator",
	// "tiling", "operator", "operator-disk").
	CacheHits []string
	// Shards are the shards that evaluated a distributed job's patch
	// ranges, in range order.
	Shards []string
}

// EvalFunc runs a job's evaluation, once: whatever it retries, it retries
// itself. A single unstencild resolves the artifacts and runs core on this
// process; the cluster coordinator fans the patches out to its shards and
// merges. On failure the Outcome, if any, still reports the cache hits.
type EvalFunc func(ctx context.Context, spec JobSpec) (*Outcome, error)

// Job is one unit of work owned by the Manager.
type Job struct {
	ID   string
	Spec JobSpec

	mu       sync.Mutex
	state    JobState
	err      error
	out      *Outcome // its Solutions are set once the job is done
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	canceled bool
	done     chan struct{}
}

// JobStatus is the JSON view of a job. The cluster coordinator serves the
// same shape; the fields from Kind on are set for its jobs only.
type JobStatus struct {
	ID         string            `json:"id"`
	State      JobState          `json:"state"`
	Spec       JobSpec           `json:"spec"`
	Error      string            `json:"error,omitempty"`
	CacheHits  []string          `json:"cache_hits,omitempty"`
	NumPoints  int               `json:"num_points,omitempty"`
	NumFields  int               `json:"num_fields,omitempty"`
	WallMS     float64           `json:"wall_ms,omitempty"`
	MemOverhd  float64           `json:"memory_overhead,omitempty"`
	Counters   *metrics.Counters `json:"counters,omitempty"`
	Degraded   bool              `json:"degraded,omitempty"`
	Coverage   *core.Coverage    `json:"coverage,omitempty"`
	CreatedAt  time.Time         `json:"created_at"`
	StartedAt  *time.Time        `json:"started_at,omitempty"`
	FinishedAt *time.Time        `json:"finished_at,omitempty"`
	// Kind is "distributed" (fanned out as patch ranges and merged by the
	// coordinator) or "routed" (run whole on Shard).
	Kind  string `json:"kind,omitempty"`
	Shard string `json:"shard,omitempty"`
	// Shards evaluated a distributed job's patch ranges, in range order.
	Shards []string `json:"shards,omitempty"`
	// ErrorKind classifies Error; "shard-failure" means a shard stayed down
	// past the retry and failover budget, not that the request was wrong.
	ErrorKind          string  `json:"error_kind,omitempty"`
	UncoveredIDs       []int32 `json:"uncovered_ids,omitempty"`
	UncoveredTruncated bool    `json:"uncovered_truncated,omitempty"`
}

// JobResult is the body of GET /v1/jobs/{id}/result: one solution per
// field, in the spec's field order, for every scheme. Everything else a
// client knows about the job is on its JobStatus, so the body is the same
// bytes at a shard and through the coordinator. A degraded job's
// uncovered points are 0; its status says which.
type JobResult struct {
	Solutions [][]float64 `json:"solutions"`
}

// MaxUncoveredIDs bounds the uncovered-point id list a job status carries;
// the coverage counts stay exact beyond it, and the solution is 0 at every
// uncovered point whether listed or not.
const MaxUncoveredIDs = 1 << 16

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		CreatedAt: j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorKind = ErrorKind(j.err)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.out == nil {
		return st
	}
	o := j.out
	st.CacheHits = append([]string(nil), o.CacheHits...)
	if j.state != StateDone {
		return st
	}
	st.NumFields = len(o.Solutions)
	if st.NumFields > 0 {
		st.NumPoints = len(o.Solutions[0])
	}
	st.WallMS = float64(o.Wall) / float64(time.Millisecond)
	st.MemOverhd = o.MemoryOverhead
	c := o.Total
	st.Counters = &c
	st.Shards = o.Shards
	if o.Coverage != nil {
		st.Degraded = true
		st.Coverage = o.Coverage
		st.UncoveredIDs = o.Coverage.UncoveredIDs
		if len(st.UncoveredIDs) > MaxUncoveredIDs {
			st.UncoveredIDs, st.UncoveredTruncated = st.UncoveredIDs[:MaxUncoveredIDs], true
		}
	}
	return st
}

// result is the job's result body once it is done; a job that failed or
// has not finished is a 409.
func (j *Job) result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateFailed:
		return nil, &Error{Status: http.StatusConflict, Err: fmt.Errorf("job %s failed: %w", j.ID, j.err)}
	case j.state != StateDone:
		return nil, Errorf(http.StatusConflict, "job %s is %s; result not ready", j.ID, j.state)
	}
	return &JobResult{Solutions: j.out.Solutions}, nil
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Errors returned by Manager.Submit.
var (
	ErrQueueFull    = errors.New("job queue full")
	ErrShuttingDown = errors.New("server shutting down")
)

// Manager owns the bounded FIFO job queue, the worker pool executing jobs,
// and the job registry. Each job runs its EvalFunc once under a
// cancellable, deadline-capped context, panic-isolated.
type Manager struct {
	eval       EvalFunc
	log        *slog.Logger
	queue      chan *Job
	workers    int
	jobTimeout time.Duration
	defBlocks  int
	maxJobs    int // retained job records (4096; evictOldLocked)
	journal    *Journal
	faults     *metrics.FaultCounters
	// epoch is the Manager's start time. It leads every job id, so an id
	// issued before a restart never names a job submitted after it.
	epoch string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	busy   atomic.Int64
	totals *metrics.Totals

	// svc averages job service time in seconds, feeding the derived
	// Retry-After on queue-full rejections.
	svc metrics.EWMA

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for bounded retention
	nextID  uint64
	closing bool
}

// ManagerConfig configures NewManager; zero fields take defaults.
type ManagerConfig struct {
	Workers      int           // worker goroutines (default 2)
	QueueSize    int           // bounded FIFO capacity (default 64)
	JobTimeout   time.Duration // per-job cap (default 5m)
	DefaultBlock int           // default blocks/patches (default 16)

	// Eval evaluates one job; required.
	Eval EvalFunc

	// Journal, when non-nil, records accepted and finished jobs for crash
	// recovery; incomplete jobs are re-enqueued via Replay on startup.
	Journal *Journal
	// Faults receives recovery telemetry; nil allocates a private instance.
	Faults *metrics.FaultCounters
}

// NewManager starts the worker pool.
func NewManager(log *slog.Logger, cfg ManagerConfig) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 5 * time.Minute
	}
	if cfg.DefaultBlock <= 0 {
		cfg.DefaultBlock = 16
	}
	if cfg.Faults == nil {
		cfg.Faults = &metrics.FaultCounters{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		eval:       cfg.Eval,
		log:        log,
		queue:      make(chan *Job, cfg.QueueSize),
		workers:    cfg.Workers,
		jobTimeout: cfg.JobTimeout,
		defBlocks:  cfg.DefaultBlock,
		maxJobs:    4096,
		journal:    cfg.Journal,
		faults:     cfg.Faults,
		epoch:      newEpoch(),
		baseCtx:    ctx,
		baseCancel: cancel,
		totals:     metrics.NewTotals(),
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// newEpoch is a Manager's job-id epoch: its start time in nanoseconds,
// base 36. A restarted process starts later, so its ids never repeat ones
// issued before the restart.
func newEpoch() string { return strconv.FormatInt(time.Now().UnixNano(), 36) }

// Submit validates spec, enqueues a job and returns it. Errors are *Error:
// 400 for an invalid spec, 503 wrapping ErrQueueFull (with the derived
// Retry-After) when the bounded queue is at capacity, and 503 wrapping
// ErrShuttingDown once graceful shutdown has begun.
//
// Job ids are "job-<epoch>-<n>": the epoch is fixed per Manager and n
// counts up zero-padded, so ids from one process sort in submission order
// and never repeat across restarts.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(m.defBlocks, false); err != nil {
		return nil, Errorf(http.StatusBadRequest, "bad job spec: %v", err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return nil, &Error{Status: http.StatusServiceUnavailable, Err: ErrShuttingDown}
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%s-%08d", m.epoch, m.nextID),
		Spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	// The non-blocking send happens under m.mu so it cannot race
	// Shutdown's close(m.queue), which also requires m.mu to flip closing.
	select {
	case m.queue <- job:
	default:
		// Retry-After is derived from the observed job service time and
		// the live queue depth, so a saturated manager tells clients how
		// long a slot actually takes to free instead of a hardcoded guess.
		return nil, &Error{Status: http.StatusServiceUnavailable, RetryAfter: m.RetryAfterSeconds(), Err: ErrQueueFull}
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.evictOldLocked()
	m.journalAccept(job)
	return job, nil
}

// journalAccept records the job in the WAL. Journal failures are logged,
// never fatal: the service degrades to in-memory durability rather than
// refusing work.
func (m *Manager) journalAccept(job *Job) {
	if m.journal == nil {
		return
	}
	if err := m.journal.Accept(job.ID, job.Spec); err != nil && m.log != nil {
		m.log.Warn("job journal accept failed; job will not survive a crash",
			"job", job.ID, "err", err)
	}
}

// journalFinish marks the job terminal in the WAL.
func (m *Manager) journalFinish(id string, state JobState) {
	if m.journal == nil {
		return
	}
	if err := m.journal.Finish(id, state); err != nil && m.log != nil {
		m.log.Warn("job journal finish failed; job may be re-run after a crash",
			"job", id, "err", err)
	}
}

// Replay re-enqueues jobs recovered from the journal under their original
// IDs; new submissions carry this Manager's epoch, so they never collide.
// Specs are re-validated and then checked by recoverable: a job that no
// longer passes (say its mesh is gone from both cache and disk) fails
// immediately with a journaled finish, so it is not replayed forever. A
// crash can leave up to QueueSize + Workers jobs pending, more than the
// queue holds, so Replay waits for a queue slot rather than drop a job;
// the workers are already running and drain it.
func (m *Manager) Replay(pending []PendingJob, recoverable func(JobSpec) error) {
	for _, p := range pending {
		m.replayOne(p, recoverable)
	}
}

func (m *Manager) replayOne(p PendingJob, recoverable func(JobSpec) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return
	}
	if _, exists := m.jobs[p.ID]; exists {
		return
	}
	err := p.Spec.Validate(m.defBlocks, false)
	job := &Job{
		ID:      p.ID,
		Spec:    p.Spec,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if err == nil {
		err = recoverable(p.Spec)
	}
	if err == nil {
		// A blocking send under m.mu: holding it keeps Shutdown from
		// closing the queue mid-send, and runJob never takes m.mu, so the
		// workers free the slot.
		m.queue <- job
	}
	if err != nil {
		job.state = StateFailed
		job.err = err
		job.finished = time.Now()
		close(job.done)
		m.journalFinish(job.ID, StateFailed)
		if m.log != nil {
			m.log.Warn("journal replay dropped job", "job", job.ID, "err", err)
		}
	} else {
		m.faults.JobsReplayed.Add(1)
		if m.log != nil {
			m.log.Info("journal replay re-enqueued job", "job", job.ID, "scheme", job.Spec.Scheme)
		}
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.evictOldLocked()
}

// ErrMeshNotFound marks submissions referencing a mesh the cache does not
// hold. It is permanent: no retry brings the mesh back.
var ErrMeshNotFound = fault.Permanent(errors.New("mesh not found"))

// evictOldLocked drops the oldest terminal job records over the retention
// bound. Queued and running records are never evicted and keep their place,
// so a long job does not pin every record finished after it. Requires m.mu.
func (m *Manager) evictOldLocked() {
	excess := len(m.order) - m.maxJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// terminal reports whether the job is done or failed.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// Job returns the job with the given id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// lookup is Job with a 404 *Error for an unknown id.
func (m *Manager) lookup(id string) (*Job, error) {
	if j, ok := m.Job(id); ok {
		return j, nil
	}
	return nil, Errorf(http.StatusNotFound, "job %q not found", id)
}

// Status reports job id.
func (m *Manager) Status(id string) (JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.Status(), nil
}

// Result returns the encoded result body of job id: 404 for an unknown id,
// 409 for a job that failed (carrying its error kind) or has not finished.
// A done job's solutions never change, so they encode outside its lock.
func (m *Manager) Result(id string) ([]byte, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	res, err := j.result()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// Jobs snapshots all retained job statuses, oldest first.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel aborts a queued or running job. Queued jobs fail immediately
// without running; running jobs are interrupted through their context. An
// unknown id is a 404 *Error, a finished job a 409.
func (m *Manager) Cancel(id string) error {
	j, err := m.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return Errorf(http.StatusConflict, "job %q already %s", id, j.state)
	}
	j.canceled = true
	if j.cancel != nil { // running
		j.cancel()
	}
	return nil
}

// QueueDepth returns the number of jobs waiting in the FIFO.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// QueueCapacity returns the FIFO bound.
func (m *Manager) QueueCapacity() int { return cap(m.queue) }

// Workers returns the pool size.
func (m *Manager) Workers() int { return m.workers }

// Busy returns how many workers are currently executing a job.
func (m *Manager) Busy() int { return int(m.busy.Load()) }

// Totals returns cumulative per-scheme counters.
func (m *Manager) Totals() map[string]metrics.TotalSnapshot { return m.totals.Snapshot() }

// RetryAfterSeconds estimates how long a rejected client should wait for a
// queue slot: the jobs ahead of it (queued + running) divided across the
// worker pool, each taking the observed mean service time. Clamped to
// [1, 60] seconds; before any job has completed it falls back to 1.
func (m *Manager) RetryAfterSeconds() int {
	svc := m.svc.Value()
	if svc <= 0 {
		return 1
	}
	ahead := float64(m.QueueDepth() + m.Busy())
	secs := int(math.Ceil(svc * ahead / float64(m.workers)))
	return max(1, min(secs, 60))
}

// StateCounts tallies retained jobs by state.
func (m *Manager) StateCounts() map[JobState]int {
	counts := map[JobState]int{}
	for _, st := range m.Jobs() {
		counts[st.State]++
	}
	return counts
}

// Shutdown stops accepting new jobs and drains the queue: workers finish
// every queued and running job, then exit. If ctx expires first, all
// in-flight jobs are cancelled through their contexts and Shutdown waits
// for the (now promptly aborting) workers before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closing {
		m.closing = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel() // abort in-flight evaluations
		<-done
		return ctx.Err()
	}
}

// worker executes jobs from the FIFO until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// clampTimeout is a request's deadline: its timeout_ms when set, but never
// longer than the server's job timeout.
func clampTimeout(timeoutMS int, jobTimeout time.Duration) time.Duration {
	if timeoutMS > 0 && int64(timeoutMS) < jobTimeout.Milliseconds() {
		return time.Duration(timeoutMS) * time.Millisecond
	}
	return jobTimeout
}

// runJob resolves artifacts and executes one job under its context.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.canceled {
		job.state = StateFailed
		job.err = context.Canceled
		job.finished = time.Now()
		job.mu.Unlock()
		close(job.done)
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	ctx, cancelTimeout := context.WithTimeout(ctx, clampTimeout(job.Spec.TimeoutMS, m.jobTimeout))
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()

	m.busy.Add(1)
	out, err := m.safeExecute(ctx, job.Spec)
	m.busy.Add(-1)
	cancelTimeout()
	cancel()

	job.mu.Lock()
	job.finished = time.Now()
	job.out = out
	if err != nil {
		job.state = StateFailed
		job.err = err
	} else {
		job.state = StateDone
		m.totals.Record(job.Spec.Scheme, &out.Total)
		if out.Coverage != nil {
			m.faults.DegradedJobs.Add(1)
		}
	}
	// Like the totals, the service time is folded in before the final
	// state is visible.
	state, wall := job.state, job.finished.Sub(job.started)
	m.svc.Observe(wall.Seconds())
	job.mu.Unlock()
	close(job.done)
	m.journalFinish(job.ID, state)

	if m.log != nil {
		var hits []string
		if out != nil {
			hits = out.CacheHits
		}
		m.log.Info("job finished",
			"job", job.ID, "state", string(state), "scheme", job.Spec.Scheme,
			"wall", wall, "cache_hits", hits, "err", err)
	}
}

// safeExecute is the one panic-isolated run of the job pipeline. Its error
// is a *JobError attributing the failure to its pipeline stage.
func (m *Manager) safeExecute(ctx context.Context, spec JobSpec) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.faults.PanicsRecovered.Add(1)
			err = &JobError{Stage: StageEvaluate, Attempts: 1, Panicked: true,
				Err: fmt.Errorf("job pipeline panicked: %v\n%s", r, debug.Stack())}
		}
		var je *JobError
		if err != nil && !errors.As(err, &je) {
			err = &JobError{Stage: StageEvaluate, Attempts: 1, Err: err}
		}
	}()
	return m.eval(ctx, spec)
}

// runStage runs one attempt of a pipeline stage under the job context. The
// artifact builders cannot observe a context mid-build, so the job's
// deadline and cancellation are enforced from outside: when ctx ends the
// stage's goroutine is abandoned (its result, if it ever finishes, still
// lands in the artifact cache for the next job) and a stage-attributed
// error returns promptly.
func (s *Server) runStage(ctx context.Context, stage string, fn func() error) error {
	done := make(chan error, 1)
	go func() {
		// A panicking builder fails its stage, not the process. Stages sit
		// outside the resilient runners, which count their own panics, so
		// its panics and those par.For recovered are counted here.
		defer func() {
			if r := recover(); r != nil {
				s.faults.PanicsRecovered.Add(1)
				done <- &JobError{Stage: stage, Attempts: 1, Panicked: true,
					Err: fmt.Errorf("stage panicked: %v\n%s", r, debug.Stack())}
			}
		}()
		err := fn()
		var pe *par.PanicError
		if errors.As(err, &pe) {
			s.faults.PanicsRecovered.Add(1)
		}
		if err != nil {
			err = &JobError{Stage: stage, Attempts: 1, Err: err, Panicked: pe != nil}
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return &JobError{Stage: stage, Attempts: 1, Err: fmt.Errorf("stage abandoned: %w", ctx.Err())}
	}
}

// evaluate is a single unstencild's EvalFunc, and the whole of a query: it
// resolves the artifact chain (mesh → field → evaluator → tiling or
// operator) and runs the evaluation on this process, each stage under the
// context's deadline. Only the artifact stage retries, under the server's
// policy: a build failure (an injected fault, a builder or assembly panic)
// costs that stage, while the evaluate stage runs once and retries inside,
// per unit. It reports which expensive artifacts were served warm from the
// cache. Errors are stage-attributed *JobErrors.
func (s *Server) evaluate(ctx context.Context, spec JobSpec) (*Outcome, error) {
	var pts []geom.Point // a query's positions; nil evaluates the grid
	if len(spec.Points) > 0 {
		pts = make([]geom.Point, len(spec.Points))
		for i, p := range spec.Points {
			pts[i] = geom.Pt(p[0], p[1])
		}
	}
	// Artifact stage: kernel tables, grids, projections, tiling. The builds
	// cannot observe ctx, so runStage bounds them from outside.
	var (
		hits   []string
		ev     *core.Evaluator
		tiling *tile.Tiling
		op     *operator.Operator
		fields []*dg.Field // operator-scheme inputs, one per batched field
	)
	attempts, err := fault.Retry(ctx, s.cfg.Retry, fault.HashString(spec.MeshID),
		func(error) { s.faults.JobRetries.Add(1) },
		func() error {
			hits = nil
			return s.runStage(ctx, StageArtifacts, func() error {
				mesh, ok := s.arts.Mesh(spec.MeshID)
				if !ok {
					return fmt.Errorf("mesh %q not resident (upload it via POST /v1/meshes): %w", spec.MeshID, ErrMeshNotFound)
				}
				boundary, err := ParseBoundary(spec.Boundary)
				if err != nil {
					return fault.Permanent(err)
				}
				var hit bool
				ev, hit, err = s.arts.Evaluator(mesh, spec.MeshID, spec.P, spec.GridDegree, boundary, spec.Field)
				if err != nil {
					return err
				}
				if hit {
					hits = append(hits, "evaluator")
				}
				switch spec.Scheme {
				case "per-element":
					tiling, hit, err = s.arts.Tiling(ev, OpKey(spec.MeshID, spec.P, ev.Opt.GridDegree, boundary), spec.Blocks)
					if err != nil {
						return err
					}
					if hit {
						hits = append(hits, "tiling")
					}
				case "operator":
					// The operator is field-independent, so a request on a
					// new field against a warm mesh (or point batch) hits
					// here and skips all geometry; after a restart the disk
					// tier answers instead and it reports "operator-disk".
					var src string
					if pts != nil {
						op, src, err = s.arts.QueryOperator(ev, spec.MeshID, pts)
					} else {
						op, src, err = s.arts.Operator(ev, spec.MeshID)
					}
					if err != nil {
						return err
					}
					hits = appendOpHit(hits, src)
					// Project every batched input field now, while still
					// under the artifact stage; the evaluate stage is then
					// pure arithmetic.
					fields, err = s.arts.fields(mesh, spec.MeshID, spec.P, spec.Fields, ev.Field)
					return err
				}
				return nil
			})
		})
	if err != nil {
		// No cache hits to report: a stage abandoned at its deadline may
		// still be appending to them.
		var je *JobError
		if !errors.As(err, &je) { // the context ended during a backoff
			je = &JobError{Stage: StageArtifacts, Err: err}
		}
		je.Attempts = attempts
		return nil, je
	}

	// The operator scheme, and the direct scheme on given points, evaluate
	// in one call, bounded by the deadline like the direct runners.
	if spec.Scheme == "operator" || pts != nil {
		out := &Outcome{MemoryOverhead: 1, CacheHits: hits}
		if err := s.runStage(ctx, StageEvaluate, func() (err error) {
			start := time.Now()
			if op != nil {
				out.Solutions, out.Total, err = s.arts.applyFields(op, fields)
			} else {
				var vals []float64
				vals, out.Total, err = ev.EvalBatch(pts, ev.Opt.Workers)
				out.Solutions = [][]float64{vals}
			}
			out.Wall = time.Since(start)
			return err
		}); err != nil {
			return &Outcome{CacheHits: hits}, err
		}
		return out, nil
	}

	// Evaluation stage: the resilient runners observe ctx directly.
	rs := s.resilience(spec.AllowPartial)
	var res *core.Result
	if spec.Scheme == "per-element" {
		res, err = ev.RunPerElementResilientCtx(ctx, tiling, rs)
	} else {
		res, err = ev.RunPerPointResilientCtx(ctx, spec.Blocks, rs)
	}
	if err != nil {
		return &Outcome{CacheHits: hits}, &JobError{Stage: StageEvaluate, Attempts: 1, Err: err}
	}
	return &Outcome{
		Solutions:      [][]float64{res.Solution},
		Total:          res.Total,
		Wall:           res.Wall,
		MemoryOverhead: res.MemoryOverhead,
		Coverage:       res.Coverage,
		CacheHits:      hits,
	}, nil
}

// resilience is the unit-level retry policy of a local evaluation.
func (s *Server) resilience(allowPartial bool) *core.Resilience {
	return &core.Resilience{Policy: s.cfg.Retry, AllowPartial: allowPartial, Faults: s.faults}
}
