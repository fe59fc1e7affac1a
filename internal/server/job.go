package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
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

// JobSpec is the client-facing description of a post-processing job.
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
	// TimeoutMS caps this job's run time; 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// AllowPartial opts this job into graceful degradation: if some tiles or
	// blocks exhaust their retries, the job completes with their output
	// zeroed and per-tile coverage metadata instead of failing.
	AllowPartial bool `json:"allow_partial,omitempty"`
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
)

// Validate checks and defaults the spec in place. The cluster coordinator
// uses it to reject bad submissions at its own front door instead of
// letting them fail asynchronously on a shard.
func (s *JobSpec) Validate(defaultBlocks int) error { return s.normalize(defaultBlocks) }

// normalize validates and defaults the spec.
func (s *JobSpec) normalize(defaultBlocks int) error {
	if s.MeshID == "" {
		return errors.New("mesh_id is required")
	}
	switch s.Scheme {
	case "per-point", "per-element", "operator":
	default:
		return fmt.Errorf("scheme must be %q, %q or %q, got %q", "per-point", "per-element", "operator", s.Scheme)
	}
	if s.P < 1 || s.P > 4 {
		return fmt.Errorf("p must be in 1..4, got %d", s.P)
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
	if s.GridDegree > MaxGridDegree {
		return fmt.Errorf("grid_degree must be <= %d, got %d", MaxGridDegree, s.GridDegree)
	}
	if s.Boundary == "" {
		s.Boundary = "periodic"
	}
	if _, err := parseBoundary(s.Boundary); err != nil {
		return err
	}
	if len(s.Fields) > 0 {
		if s.Scheme != "operator" {
			return fmt.Errorf("fields (batched apply) requires the %q scheme, got %q", "operator", s.Scheme)
		}
		if len(s.Fields) > MaxJobFields {
			return fmt.Errorf("at most %d fields per job, got %d", MaxJobFields, len(s.Fields))
		}
		for i, f := range s.Fields {
			if _, ok := FieldFuncs[f]; !ok {
				return fmt.Errorf("unknown fields[%d] %q (have %v)", i, f, FieldNames())
			}
		}
		if s.Field == "" {
			s.Field = s.Fields[0]
		}
	}
	if s.Field == "" {
		s.Field = "sincos"
	}
	if _, ok := FieldFuncs[s.Field]; !ok {
		return fmt.Errorf("unknown field %q (have %v)", s.Field, FieldNames())
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	return nil
}

func parseBoundary(s string) (core.Boundary, error) {
	switch s {
	case "periodic":
		return core.Periodic, nil
	case "one-sided":
		return core.OneSided, nil
	default:
		return 0, fmt.Errorf("boundary must be %q or %q, got %q", "periodic", "one-sided", s)
	}
}

func parseScheme(s string) core.Scheme {
	switch s {
	case "per-point":
		return core.PerPoint
	case "operator":
		return core.Assembled
	default:
		return core.PerElement
	}
}

// Job pipeline stages, used to attribute failures and enforce per-stage
// deadlines.
const (
	StageArtifacts = "artifacts" // mesh → field → evaluator → tiling builds
	StageEvaluate  = "evaluate"  // the core evaluation run
)

// JobError attributes a job failure to a pipeline stage and records how many
// whole-job attempts were spent and whether the final failure was a
// recovered panic.
type JobError struct {
	Stage    string
	Attempts int
	Panicked bool
	Err      error
}

// Error implements error.
func (e *JobError) Error() string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("job %s in stage %q after %d attempt(s): %v", kind, e.Stage, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Job is one unit of work owned by the Manager.
type Job struct {
	ID   string
	Spec JobSpec

	mu        sync.Mutex
	state     JobState
	err       error
	result    *core.Result
	cacheHits []string // artifact kinds served warm ("evaluator", "tiling")
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	canceled  bool
	done      chan struct{}
}

// JobStatus is the JSON view of a job.
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
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		CacheHits: append([]string(nil), j.cacheHits...),
		CreatedAt: j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.result != nil {
		st.NumPoints = len(j.result.Solution)
		st.NumFields = len(j.result.Solutions)
		st.WallMS = float64(j.result.Wall) / float64(time.Millisecond)
		st.MemOverhd = j.result.MemoryOverhead
		c := j.result.Total
		st.Counters = &c
		if j.result.Coverage != nil {
			st.Degraded = true
			st.Coverage = j.result.Coverage
		}
	}
	return st
}

// Result returns the run result once the job is done.
func (j *Job) Result() (*core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Errors returned by Manager.Submit.
var (
	ErrQueueFull    = errors.New("job queue full")
	ErrShuttingDown = errors.New("server shutting down")
)

// Manager owns the bounded FIFO job queue, the worker pool executing jobs,
// and the job registry. Jobs resolve their artifacts through the shared
// Artifacts cache and run core evaluations under a cancellable,
// deadline-capped context.
type Manager struct {
	arts         *Artifacts
	log          *slog.Logger
	queue        chan *Job
	workers      int
	jobTimeout   time.Duration
	stageTimeout time.Duration
	defBlocks    int
	maxJobs      int
	retry        RetryPolicy
	journal      *Journal
	faults       *metrics.FaultCounters

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	busy   atomic.Int64
	totals *metrics.Totals

	// svcEWMA tracks the exponentially weighted moving average of job
	// service time (seconds), feeding the derived Retry-After on queue-full
	// rejections. Stored as float64 bits for lock-free update/read.
	svcEWMA atomic.Uint64

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for bounded retention
	nextID  uint64
	closing bool
}

// RetryPolicy shapes both the per-unit (tile/block) retry inside an
// evaluation and the whole-job retry in the worker: Attempts tries total per
// unit and per job, with capped exponential backoff between tries.
type RetryPolicy struct {
	Attempts int           // total tries (default 1 = no retry)
	Base     time.Duration // backoff before the first retry (default 10ms when retrying)
	Max      time.Duration // backoff cap (default 500ms)
}

// WithDefaults returns p with zero fields defaulted as documented on the
// type.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 500 * time.Millisecond
	}
	return p
}

// ManagerConfig configures NewManager; zero fields take defaults.
type ManagerConfig struct {
	Workers      int           // worker goroutines (default 2)
	QueueSize    int           // bounded FIFO capacity (default 64)
	JobTimeout   time.Duration // per-job cap (default 5m)
	StageTimeout time.Duration // per-stage cap (default: the job timeout)
	DefaultBlock int           // default blocks/patches (default 16)
	MaxJobs      int           // retained job records (default 4096)
	Retry        RetryPolicy   // unit- and job-level retry (default: none)

	// Journal, when non-nil, records accepted and finished jobs for crash
	// recovery; incomplete jobs are re-enqueued via Replay on startup.
	Journal *Journal
	// Faults receives recovery telemetry; nil allocates a private instance.
	Faults *metrics.FaultCounters
}

// NewManager starts the worker pool.
func NewManager(arts *Artifacts, log *slog.Logger, cfg ManagerConfig) *Manager {
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
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.StageTimeout <= 0 {
		cfg.StageTimeout = cfg.JobTimeout
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	if cfg.Faults == nil {
		cfg.Faults = &metrics.FaultCounters{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		arts:         arts,
		log:          log,
		queue:        make(chan *Job, cfg.QueueSize),
		workers:      cfg.Workers,
		jobTimeout:   cfg.JobTimeout,
		stageTimeout: cfg.StageTimeout,
		defBlocks:    cfg.DefaultBlock,
		maxJobs:      cfg.MaxJobs,
		retry:        cfg.Retry,
		journal:      cfg.Journal,
		faults:       cfg.Faults,
		baseCtx:      ctx,
		baseCancel:   cancel,
		totals:       metrics.NewTotals(),
		jobs:         make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates spec, enqueues a job and returns it. ErrQueueFull means
// the bounded queue is at capacity (the caller should surface 503);
// ErrShuttingDown means graceful shutdown has begun.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.normalize(m.defBlocks); err != nil {
		return nil, err
	}
	if _, ok := m.arts.Mesh(spec.MeshID); !ok {
		return nil, fmt.Errorf("mesh %q not resident (upload it via POST /v1/meshes): %w",
			spec.MeshID, ErrMeshNotFound)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return nil, ErrShuttingDown
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%08d", m.nextID),
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
		return nil, ErrQueueFull
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

// Replay re-enqueues jobs recovered from the journal, preserving their
// original IDs and advancing the ID counter past them so new submissions
// never collide. Specs are re-validated: a job whose spec no longer passes
// (or whose mesh is gone from both cache and disk) fails immediately with a
// journaled finish, so it is not replayed forever.
func (m *Manager) Replay(pending []PendingJob) {
	for _, p := range pending {
		m.replayOne(p)
	}
}

func (m *Manager) replayOne(p PendingJob) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return
	}
	var n uint64
	if _, err := fmt.Sscanf(p.ID, "job-%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
	if _, exists := m.jobs[p.ID]; exists {
		return
	}
	err := p.Spec.normalize(m.defBlocks)
	job := &Job{
		ID:      p.ID,
		Spec:    p.Spec,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if err == nil {
		if _, ok := m.arts.Mesh(p.Spec.MeshID); !ok {
			err = fmt.Errorf("mesh %q not recoverable after restart: %w", p.Spec.MeshID, ErrMeshNotFound)
		}
	}
	if err == nil {
		select {
		case m.queue <- job:
		default:
			err = ErrQueueFull
		}
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
// hold.
var ErrMeshNotFound = errors.New("mesh not found")

// evictOldLocked drops the oldest terminal job records over the retention
// bound. Requires m.mu.
func (m *Manager) evictOldLocked() {
	for len(m.order) > m.maxJobs {
		id := m.order[0]
		j := m.jobs[id]
		if j != nil {
			j.mu.Lock()
			terminal := j.state == StateDone || j.state == StateFailed
			j.mu.Unlock()
			if !terminal {
				return // oldest record still active; retain everything
			}
			delete(m.jobs, id)
		}
		m.order = m.order[1:]
	}
}

// Job returns the job with the given id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
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
// without running; running jobs are interrupted through their context.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("job %q not found", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed:
		return fmt.Errorf("job %q already %s", id, j.state)
	case StateQueued:
		j.canceled = true
		return nil
	default: // running
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
		return nil
	}
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

// RecordQuery folds one batch query's counters into the cumulative totals
// under the "batch-query" series, so /debug/metrics reports query traffic
// alongside scheme runs.
func (m *Manager) RecordQuery(c *metrics.Counters) { m.totals.Record("batch-query", c) }

// observeService folds one finished job's wall time into the service-time
// EWMA (α = 0.2: responsive to workload shifts, stable against one outlier).
func (m *Manager) observeService(wall time.Duration) {
	const alpha = 0.2
	s := wall.Seconds()
	for {
		old := m.svcEWMA.Load()
		prev := math.Float64frombits(old)
		next := s
		if old != 0 {
			next = alpha*s + (1-alpha)*prev
		}
		if m.svcEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// ServiceEWMA returns the observed mean job service time (0 before the
// first job completes).
func (m *Manager) ServiceEWMA() time.Duration {
	return time.Duration(math.Float64frombits(m.svcEWMA.Load()) * float64(time.Second))
}

// RetryAfterSeconds estimates how long a rejected client should wait for a
// queue slot: the jobs ahead of it (queued + running) divided across the
// worker pool, each taking the observed mean service time. Clamped to
// [1, 60] seconds; before any job has completed it falls back to 1.
func (m *Manager) RetryAfterSeconds() int {
	svc := math.Float64frombits(m.svcEWMA.Load())
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
	timeout := m.jobTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()

	m.busy.Add(1)
	res, hits, err := m.executeWithRetry(ctx, job.Spec)
	m.busy.Add(-1)
	cancelTimeout()
	cancel()

	job.mu.Lock()
	job.finished = time.Now()
	job.cacheHits = hits
	if err != nil {
		job.state = StateFailed
		job.err = err
	} else {
		job.state = StateDone
		job.result = res
		m.totals.Record(job.Spec.Scheme, &res.Total)
		if res.Coverage != nil {
			m.faults.DegradedJobs.Add(1)
		}
	}
	state, wall := job.state, job.finished.Sub(job.started)
	job.mu.Unlock()
	close(job.done)
	m.observeService(wall)
	m.journalFinish(job.ID, state)

	if m.log != nil {
		m.log.Info("job finished",
			"job", job.ID, "state", string(state), "scheme", job.Spec.Scheme,
			"wall", wall, "cache_hits", hits, "err", err)
	}
}

// executeWithRetry runs the job pipeline under the manager's retry policy:
// each attempt is panic-isolated, transient failures (including recovered
// panics) retry with capped exponential backoff, and permanent failures
// (cancellation, deadline, validation) return immediately. The final error
// is a *JobError attributing the failure to its pipeline stage.
func (m *Manager) executeWithRetry(ctx context.Context, spec JobSpec) (*core.Result, []string, error) {
	var (
		res      *core.Result
		hits     []string
		err      error
		panicked bool
	)
	attempts := 0
	for attempts < m.retry.Attempts {
		if attempts > 0 {
			m.faults.JobRetries.Add(1)
			if serr := fault.Sleep(ctx, fault.Backoff(m.retry.Base, m.retry.Max, attempts, uint64(attempts))); serr != nil {
				// The caller gave up during the backoff: that, not the
				// transient failure being waited out, is the verdict.
				err, panicked = serr, false
				break
			}
		}
		attempts++
		res, hits, panicked, err = m.safeExecute(ctx, spec)
		if err == nil || !core.Transient(err) {
			break
		}
	}
	if err == nil {
		return res, hits, nil
	}
	je := &JobError{Stage: StageEvaluate, Err: err, Panicked: panicked}
	var inner *JobError
	if errors.As(err, &inner) {
		je = inner
		je.Panicked = je.Panicked || panicked
	}
	if je.Attempts == 0 {
		je.Attempts = attempts
	}
	return nil, hits, je
}

// safeExecute is one panic-isolated attempt of the job pipeline.
func (m *Manager) safeExecute(ctx context.Context, spec JobSpec) (res *core.Result, hits []string, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.faults.PanicsRecovered.Add(1)
			panicked = true
			err = fmt.Errorf("job pipeline panicked: %v\n%s", r, debug.Stack())
		}
	}()
	res, hits, err = m.execute(ctx, spec)
	return res, hits, false, err
}

// runStage runs one pipeline stage under its own deadline. The artifact
// builders cannot observe a context mid-build, so the deadline is enforced
// from outside: on expiry the stage's goroutine is abandoned (its result, if
// it ever finishes, still lands in the artifact cache for the next attempt)
// and a stage-attributed error returns promptly.
func (m *Manager) runStage(ctx context.Context, stage string, fn func() error) error {
	ctx, cancel := context.WithTimeout(ctx, m.stageTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			// The stages run here sit outside the resilient runners, which
			// count their own: a worker panic core's dispatcher recovered
			// (operator assembly) is counted on arrival.
			var pe *core.PanicError
			if errors.As(err, &pe) {
				m.faults.PanicsRecovered.Add(1)
			}
			return &JobError{Stage: stage, Err: err, Panicked: pe != nil}
		}
		return nil
	case <-ctx.Done():
		return &JobError{Stage: stage, Err: fmt.Errorf("stage deadline: %w", ctx.Err())}
	}
}

// execute resolves the artifact chain (mesh → field → evaluator → tiling)
// and runs the evaluation, each stage under its own deadline. It reports
// which expensive artifacts were served warm from the cache. Errors are
// stage-attributed *JobErrors.
func (m *Manager) execute(ctx context.Context, spec JobSpec) (*core.Result, []string, error) {
	mesh, ok := m.arts.Mesh(spec.MeshID)
	if !ok {
		return nil, nil, &JobError{Stage: StageArtifacts,
			Err: fmt.Errorf("mesh %q evicted before the job ran: %w", spec.MeshID, ErrMeshNotFound)}
	}
	boundary, err := parseBoundary(spec.Boundary)
	if err != nil {
		return nil, nil, &JobError{Stage: StageArtifacts, Err: err}
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
	scheme := parseScheme(spec.Scheme)
	if err := m.runStage(ctx, StageArtifacts, func() error {
		var hit bool
		var err error
		ev, hit, err = m.arts.Evaluator(mesh, spec.MeshID, spec.P, spec.GridDegree, boundary, spec.Field)
		if err != nil {
			return err
		}
		if hit {
			hits = append(hits, "evaluator")
		}
		switch scheme {
		case core.PerElement:
			evalKey := EvalKey(spec.MeshID, spec.P, spec.GridDegree, boundary, spec.Field)
			tiling, hit, err = m.arts.Tiling(ev, evalKey, spec.Blocks)
			if err != nil {
				return err
			}
			if hit {
				hits = append(hits, "tiling")
			}
		case core.Assembled:
			// The operator is field-independent, so a job on a new field
			// against a warm mesh hits here and skips all geometry; after a
			// restart the disk tier answers instead and the job reports
			// "operator-disk".
			var src string
			op, src, err = m.arts.Operator(ev, spec.MeshID)
			if err != nil {
				return err
			}
			switch src {
			case OpSrcMemory:
				hits = append(hits, "operator")
			case OpSrcDisk:
				hits = append(hits, "operator-disk")
			}
			// Project every batched input field now, while still under the
			// artifact-stage deadline; the evaluate stage is then pure
			// arithmetic. Single-field jobs reuse the evaluator's field.
			if len(spec.Fields) == 0 {
				fields = []*dg.Field{ev.Field}
				break
			}
			fields = make([]*dg.Field, len(spec.Fields))
			for i, name := range spec.Fields {
				fields[i], _, err = m.arts.Field(mesh, spec.MeshID, spec.P, name)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, hits, err
	}

	// Assembled scheme: the evaluation is one sparse apply, bounded by the
	// evaluate-stage deadline like the direct runners.
	if scheme == core.Assembled {
		var res *core.Result
		if err := m.runStage(ctx, StageEvaluate, func() error {
			start := time.Now()
			nf := len(fields)
			// One backing allocation for everything the result retains;
			// the apply itself is allocation-free on top of it.
			backing := make([]float64, nf*op.Rows)
			outs := make([][]float64, nf)
			for i := range outs {
				outs[i] = backing[i*op.Rows : (i+1)*op.Rows : (i+1)*op.Rows]
			}
			total, err := m.arts.applyFields(op, fields, outs)
			if err != nil {
				return err
			}
			res = &core.Result{
				Solution:       outs[0],
				Total:          total,
				Wall:           time.Since(start),
				MemoryOverhead: 1,
				Scheme:         core.Assembled,
			}
			if nf > 1 {
				res.Solutions = outs
			}
			return nil
		}); err != nil {
			return nil, hits, err
		}
		return res, hits, nil
	}

	// Evaluation stage: the resilient runners observe ctx directly, so the
	// stage deadline composes with the job deadline through the context.
	evalCtx, cancel := context.WithTimeout(ctx, m.stageTimeout)
	defer cancel()
	rs := &core.Resilience{
		MaxAttempts:  m.retry.Attempts,
		BaseDelay:    m.retry.Base,
		MaxDelay:     m.retry.Max,
		AllowPartial: spec.AllowPartial,
		Faults:       m.faults,
	}
	var res *core.Result
	if scheme == core.PerElement {
		res, err = ev.RunPerElementResilientCtx(evalCtx, tiling, rs)
	} else {
		res, err = ev.RunPerPointResilientCtx(evalCtx, spec.Blocks, rs)
	}
	if err != nil {
		return nil, hits, &JobError{Stage: StageEvaluate, Err: err}
	}
	return res, hits, nil
}
