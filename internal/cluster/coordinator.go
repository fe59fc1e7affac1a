package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
	"unstencil/internal/server"
)

// Config sizes the coordinator; zero fields take the documented defaults.
type Config struct {
	// Shards are the unstencild base URLs (e.g. http://host:9090) forming
	// the cluster. Required, distinct.
	Shards []string
	// RequestTimeout caps each attempt of a shard request without a deadline
	// of its own (default 30s): status, result, job list, mesh upload, routed
	// submit, query. Patch ranges run under the job's deadline instead.
	RequestTimeout time.Duration
	// HedgeDelay, when > 0, arms hedged reads on /v1/query: if the primary
	// shard has not answered within the delay, a duplicate is sent to the
	// next replica and the first success wins. The hedge is drawn from the
	// FailoverAttempts window. 0 disables hedging.
	HedgeDelay time.Duration
	// Retry shapes per-shard request retry of a transport failure or a 5xx
	// (capped exponential backoff with deterministic jitter; zero value: no
	// retry). A patch range's patches retry on their shard, not here.
	Retry fault.Policy
	// FailoverAttempts is how many ring successors a failed patch range,
	// routed job or query may move to after its shard exhausts the retry
	// budget; a query's hedge counts as one. 0 means the default (1);
	// negative keeps every request on its first shard, forcing the
	// degraded path — which is exactly what a chaos drill wants.
	FailoverAttempts int
	// HealthInterval is the /readyz polling period (default 1s).
	HealthInterval time.Duration
	// HealthThreshold is how many consecutive transport failures mark a
	// shard Down (default 3).
	HealthThreshold int
	// DefaultBlocks is the patch/block count for jobs that omit it
	// (default 16).
	DefaultBlocks int
	// JobTimeout caps a distributed job's end-to-end execution (default 5m).
	JobTimeout time.Duration
	// JobConcurrency bounds concurrently executing distributed jobs
	// (default 4).
	JobConcurrency int
	// MaxBodyBytes bounds request bodies, mesh uploads included
	// (default 32 MiB).
	MaxBodyBytes int64
	// Log receives structured logs; nil disables logging.
	Log *slog.Logger
}

func (c *Config) defaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultBlocks <= 0 {
		c.DefaultBlocks = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobConcurrency <= 0 {
		c.JobConcurrency = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.FailoverAttempts == 0 {
		c.FailoverAttempts = 1
	}
}

// Job kinds, as JobStatus.Kind reports them.
const (
	// KindDistributed jobs (per-element scheme) fan out as patch ranges
	// across shards and are merged by the coordinator.
	KindDistributed = "distributed"
	// KindRouted jobs (per-point, operator) run whole on one shard chosen by
	// consistent hash; status, result and cancel go to that shard.
	KindRouted = "routed"
)

// Coordinator is the cluster's routing backend behind server's HTTP
// surface, so clients need not know they are talking to a cluster. It owns
// the consistent-hash ring, the shard health table and the retained mesh
// bytes. Distributed jobs run on a server.Manager whose evaluation step is
// the fan-out/merge; routed jobs live on their shard alone.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	health   *HealthChecker
	client   *Client
	counters metrics.ClusterCounters
	faults   metrics.FaultCounters
	mgr      *server.Manager
	handler  http.Handler
	log      *slog.Logger

	// meshes retains every uploaded mesh's encoded bytes so the
	// coordinator can re-seed a shard that answers "mesh not resident" — a
	// restarted shard without durable state heals transparently on first
	// use.
	meshMu sync.Mutex
	meshes map[string][]byte
}

// New assembles the coordinator and runs one synchronous health pass so
// the routing table is populated before the first request. Call Start to
// begin periodic health polling and Close to release resources.
func New(cfg Config) (*Coordinator, error) {
	cfg.defaults()
	// Coordinators over one shard list must agree on placement, so the
	// virtual-node count is the package default, not a setting.
	ring, err := NewRing(cfg.Shards, 0)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{}
	co := &Coordinator{
		cfg:    cfg,
		ring:   ring,
		health: NewHealthChecker(cfg.Shards, hc, cfg.HealthInterval, cfg.HealthThreshold, cfg.Log),
		log:    cfg.Log,
		meshes: make(map[string][]byte),
	}
	co.client = NewClient(hc, cfg.RequestTimeout, cfg.Retry, &co.counters, cfg.Log)
	co.mgr = server.NewManager(cfg.Log, server.ManagerConfig{
		Workers:      cfg.JobConcurrency,
		JobTimeout:   cfg.JobTimeout,
		DefaultBlock: cfg.DefaultBlocks,
		Faults:       &co.faults,
		Eval:         co.evalDistributed,
	})
	co.handler = server.NewHandler(co, http.NewServeMux(), cfg.MaxBodyBytes, cfg.Log, &co.faults)
	co.health.CheckNow()
	return co, nil
}

// Start begins periodic shard health polling.
func (co *Coordinator) Start() { co.health.Start() }

// Close stops health polling and cancels in-flight distributed jobs.
func (co *Coordinator) Close() {
	co.health.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()                 // no drain window: abort whatever is running
	_ = co.mgr.Shutdown(ctx) // always ctx's own error, by construction
}

// Counters exposes the cluster counters (tests, embedding).
func (co *Coordinator) Counters() *metrics.ClusterCounters { return &co.counters }

// Health exposes the health checker (tests drive CheckNow directly).
func (co *Coordinator) Health() *HealthChecker { return co.health }

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.handler.ServeHTTP(w, r)
}

// routable returns the ring succession for key filtered to shards the
// health table marks Ready. Routing only to Ready shards keeps saturated
// (NotReady) shards out of new work while they drain — their keyspace
// returns to them the moment they recover, because the ring itself never
// changes.
func (co *Coordinator) routable(key string) []string {
	return slices.DeleteFunc(co.ring.Order(key), func(s string) bool { return co.health.State(s) != StateReady })
}

// retained returns the encoded bytes of an uploaded mesh.
func (co *Coordinator) retained(id string) ([]byte, bool) {
	co.meshMu.Lock()
	defer co.meshMu.Unlock()
	raw, ok := co.meshes[id]
	return raw, ok
}

// reseedMesh re-uploads one retained mesh to one shard (the 404 protocol).
// Mesh ids are content hashes, so re-seeding is idempotent and the shard's
// response id must round-trip.
func (co *Coordinator) reseedMesh(ctx context.Context, shard, id string) error {
	raw, ok := co.retained(id)
	if !ok {
		return fmt.Errorf("mesh %s not retained", id)
	}
	got, err := co.postMesh(ctx, shard, raw)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("re-seeded mesh id mismatch: sent %s, shard stored %s", id, got)
	}
	co.counters.MeshReseeds.Add(1)
	if co.log != nil {
		co.log.Info("re-seeded mesh to shard", "mesh", id, "shard", shard)
	}
	return nil
}

// postMesh uploads an encoded mesh to one shard and returns the id it was
// stored under.
func (co *Coordinator) postMesh(ctx context.Context, shard string, raw []byte) (string, error) {
	var out struct {
		MeshID string `json:"mesh_id"`
	}
	err := co.client.Do(ctx, http.MethodPost, shard, "/v1/meshes", raw, &out)
	return out.MeshID, err
}

// route POSTs body to path on the ring succession order of a request about
// meshID, and is the one place the routing policy lives. The request may
// touch order[:1+FailoverAttempts]: the primary goes out at once, with
// hedge > 0 at most one hedge follows after that delay, and each
// *ShardError launches the next shard of the window. Any other failure — a
// 4xx, or the caller giving up — would repeat on every shard and ends the
// walk. The first success wins and the losers are cancelled. Transport
// exhaustion is strong evidence the process is gone, so that shard is
// marked Down ahead of the next probe tick. A 404 means the shard
// (typically restarted without durable state) does not hold the mesh: it
// is re-seeded from the retained bytes and asked once more. Each attempt
// decodes into its own T, so a hedge never races its primary.
func route[T any](ctx context.Context, co *Coordinator, order []string, hedge time.Duration,
	meshID, path string, body []byte) (T, string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	order = order[:min(len(order), 1+max(co.cfg.FailoverAttempts, 0))]
	type result struct {
		out    T
		shard  string
		err    error
		hedged bool
	}
	results := make(chan result, len(order))
	next := 0
	launch := func(hedged bool) {
		shard := order[next]
		next++
		go func() {
			var out T
			err := co.client.Do(ctx, http.MethodPost, shard, path, body, &out)
			if RemoteStatus(err) == http.StatusNotFound {
				if rerr := co.reseedMesh(ctx, shard, meshID); rerr != nil {
					err = fmt.Errorf("%w (re-seed failed: %v)", err, rerr)
				} else {
					err = co.client.Do(ctx, http.MethodPost, shard, path, body, &out)
				}
			}
			results <- result{out, shard, err, hedged}
		}()
	}
	launch(false)
	var hedgeTimer <-chan time.Time
	if hedge > 0 && len(order) > 1 {
		hedgeTimer = time.After(hedge)
	}
	var zero T
	var err error
	for inflight := 1; inflight > 0; {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(order) {
				co.counters.Hedges.Add(1)
				launch(true)
				inflight++
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				if r.hedged {
					co.counters.HedgeWins.Add(1)
				}
				return r.out, r.shard, nil
			}
			err = r.err
			var se *ShardError
			if !errors.As(err, &se) {
				return zero, "", err
			}
			if se.Status == 0 {
				co.health.MarkDown(r.shard, se.Err)
			}
			if next < len(order) {
				co.counters.Failovers.Add(1)
				launch(false)
				inflight++
			}
		}
	}
	return zero, "", err
}

// proxyError is what a client receives for a failed shard interaction: a
// relayed 4xx keeps its status, anything else — shard exhaustion included,
// whose error_kind says shard-failure — is a 502.
func proxyError(err error) error {
	status := http.StatusBadGateway
	if st := RemoteStatus(err); st/100 == 4 {
		status = st
	}
	return &server.Error{Status: status, Err: err}
}

// PutMesh implements server.Backend: it fans the encoded mesh out to every
// shard and retains the raw bytes for later re-seeding. The upload
// succeeds if at least one shard accepted it — shards that were down heal
// via the 404 protocol.
func (co *Coordinator) PutMesh(ctx context.Context, m *mesh.Mesh, raw []byte) (any, error) {
	co.counters.MeshFanouts.Add(1)
	shards := co.ring.Shards()
	ids := make([]string, len(shards))
	errs := make([]error, len(shards))
	if err := par.For(len(shards), len(shards), func(_, i int) error {
		ids[i], errs[i] = co.postMesh(ctx, shards[i], raw)
		return nil
	}); err != nil {
		// A shard request panicked: re-raised on the request goroutine,
		// where the handler's recovery counts it and answers 500.
		panic(err)
	}

	var id string
	var seeded, failed []string
	for i, shard := range shards {
		if errs[i] != nil {
			failed = append(failed, shard)
			continue
		}
		seeded = append(seeded, shard)
		if id != "" && id != ids[i] {
			return nil, server.Errorf(http.StatusBadGateway,
				"shards disagree on mesh id (%s vs %s); refusing to route", id, ids[i])
		}
		id = ids[i]
	}
	if id == "" {
		return nil, server.Errorf(http.StatusBadGateway, "no shard accepted the mesh (%d down)", len(failed))
	}
	co.meshMu.Lock()
	co.meshes[id] = raw
	co.meshMu.Unlock()
	return map[string]any{
		"mesh_id":       id,
		"num_tris":      m.NumTris(),
		"num_verts":     m.NumVerts(),
		"shards_seeded": seeded,
		"shards_failed": failed,
	}, nil
}

// MeshInfo implements server.Backend from the retained mesh bytes, so it
// needs no shard.
func (co *Coordinator) MeshInfo(_ context.Context, id string) (any, error) {
	raw, ok := co.retained(id)
	if !ok {
		return nil, server.Errorf(http.StatusNotFound, "mesh %q not known to the coordinator", id)
	}
	m, err := mesh.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return server.MeshStats(id, m), nil
}

// Query implements server.Backend: the batch goes to the mesh's home
// shard, hedged with the next replica after HedgeDelay and failing over
// along the succession within the failover budget.
func (co *Coordinator) Query(ctx context.Context, req *server.QueryRequest) (*server.QueryResult, error) {
	order := co.routable(req.MeshID)
	if len(order) == 0 {
		return nil, server.Errorf(http.StatusServiceUnavailable, "no ready shard for mesh %s", req.MeshID)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	co.counters.QueriesRouted.Add(1)
	out, shard, err := route[server.QueryResult](ctx, co, order, co.cfg.HedgeDelay, req.MeshID, "/v1/query", raw)
	if err != nil {
		return nil, proxyError(err)
	}
	out.Shard = shard
	return &out, nil
}

// Submit implements server.Backend. Per-element jobs are distributed: the
// deterministic k-patch tiling is split into contiguous ranges across the
// ready shards and merged here. Per-point and operator jobs run whole on
// the mesh's home shard (their artifacts — block schedules, assembled
// operators — live shard-side).
func (co *Coordinator) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	if err := spec.Validate(co.cfg.DefaultBlocks); err != nil {
		return server.JobStatus{}, server.Errorf(http.StatusBadRequest, "bad job spec: %v", err)
	}
	if _, known := co.retained(spec.MeshID); !known {
		return server.JobStatus{}, server.Errorf(http.StatusNotFound,
			"mesh %q not known to the coordinator (upload it via POST /v1/meshes)", spec.MeshID)
	}
	if spec.Scheme != "per-element" {
		return co.submitRouted(ctx, spec)
	}
	job, err := co.mgr.Submit(spec)
	if err != nil {
		return server.JobStatus{}, err
	}
	co.counters.JobsDistributed.Add(1)
	st := job.Status()
	st.Kind = KindDistributed
	return st, nil
}

// submitRouted forwards a whole job to the mesh's home shard, failing the
// submission over along the succession within the failover budget. It is
// never hedged: a job submit is not idempotent.
func (co *Coordinator) submitRouted(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	order := co.routable(spec.MeshID)
	if len(order) == 0 {
		return server.JobStatus{}, server.Errorf(http.StatusServiceUnavailable, "no ready shard for mesh %s", spec.MeshID)
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		return server.JobStatus{}, err
	}
	st, shard, err := route[server.JobStatus](ctx, co, order, 0, spec.MeshID, "/v1/jobs", raw)
	if err != nil {
		return server.JobStatus{}, proxyError(err)
	}
	co.counters.JobsRouted.Add(1)
	return co.routedStatus(slices.Index(co.cfg.Shards, shard), st), nil
}

// A routed job's id is "s<i>-<shard job id>", i the shard's index in the
// -shards list. It needs no coordinator state, so any coordinator over the
// same list resolves it — across restarts too — and the shard's journal
// backs it; it never equals the shard-local id.
func routedID(i int, remote string) string { return fmt.Sprintf("s%d-%s", i, remote) }

// routed resolves a routed job id to its shard's index and the path of the
// job on that shard; ok is false for any other id.
func (co *Coordinator) routed(id string) (i int, path string, ok bool) {
	rest, ok := strings.CutPrefix(id, "s")
	idx, remote, cut := strings.Cut(rest, "-")
	i, err := strconv.Atoi(idx)
	if !ok || !cut || err != nil || i < 0 || i >= len(co.cfg.Shards) || remote == "" {
		return 0, "", false
	}
	return i, "/v1/jobs/" + url.PathEscape(remote), true
}

// routedStatus rewrites shard i's view of a job to the cluster's.
func (co *Coordinator) routedStatus(i int, st server.JobStatus) server.JobStatus {
	st.ID = routedID(i, st.ID)
	st.Kind, st.Shard = KindRouted, co.cfg.Shards[i]
	return st
}

// Status implements server.Backend: one shard round trip for a routed job,
// the Manager's record for a distributed one.
func (co *Coordinator) Status(ctx context.Context, id string) (server.JobStatus, error) {
	if i, path, ok := co.routed(id); ok {
		var st server.JobStatus
		if err := co.client.Do(ctx, http.MethodGet, co.cfg.Shards[i], path, nil, &st); err != nil {
			return server.JobStatus{}, proxyError(err)
		}
		return co.routedStatus(i, st), nil
	}
	st, err := co.mgr.Status(id)
	st.Kind = KindDistributed
	return st, err
}

// Jobs implements server.Backend: the distributed jobs, then every
// reachable shard's jobs under their routed ids.
func (co *Coordinator) Jobs(ctx context.Context) []server.JobStatus {
	out := co.mgr.Jobs()
	for i := range out {
		out[i].Kind = KindDistributed
	}
	for i, shard := range co.cfg.Shards {
		var list struct {
			Jobs []server.JobStatus `json:"jobs"`
		}
		if co.health.State(shard) == StateDown || co.client.Do(ctx, http.MethodGet, shard, "/v1/jobs", nil, &list) != nil {
			continue // its jobs are unreachable, not gone
		}
		for _, st := range list.Jobs {
			out = append(out, co.routedStatus(i, st))
		}
	}
	return out
}

// Result implements server.Backend: a routed job's body is relayed from
// its shard byte for byte, a distributed one's encoded by the Manager.
func (co *Coordinator) Result(ctx context.Context, id string) ([]byte, error) {
	if i, path, ok := co.routed(id); ok {
		var body []byte
		if err := co.client.Do(ctx, http.MethodGet, co.cfg.Shards[i], path+"/result", nil, &body); err != nil {
			return nil, proxyError(err)
		}
		return body, nil
	}
	return co.mgr.Result(id)
}

// Cancel implements server.Backend: a routed job is cancelled on its
// shard; a distributed one through its context, which aborts the in-flight
// shard requests.
func (co *Coordinator) Cancel(ctx context.Context, id string) error {
	if i, path, ok := co.routed(id); ok {
		if err := co.client.Do(ctx, http.MethodDelete, co.cfg.Shards[i], path, nil, nil); err != nil {
			return proxyError(err)
		}
		return nil
	}
	return co.mgr.Cancel(id)
}

// Readiness implements server.Backend: the coordinator can do useful work
// while at least one shard is Ready (possibly degraded — honest partial
// coverage beats refusing all traffic).
func (co *Coordinator) Readiness() (bool, map[string]any, int) {
	ready, down := co.health.Counts()
	body := map[string]any{
		"ready":        ready > 0,
		"shards_ready": ready,
		"shards_down":  down,
		"shards_total": len(co.cfg.Shards),
	}
	if ready == 0 {
		body["reason"] = "no shard is ready"
	}
	return ready > 0, body, 0
}

// Metrics implements server.Backend: the cluster counters, every shard's
// health record, the per-shard routing table (which retained meshes each
// shard is the current primary for, given the live health filter), the
// distributed jobs by state and the recovery counters.
func (co *Coordinator) Metrics() map[string]any {
	type shardRoute struct {
		State  ShardState `json:"state"`
		VNodes int        `json:"vnodes"`
		Meshes []string   `json:"meshes,omitempty"`
	}
	routing := make(map[string]*shardRoute, len(co.cfg.Shards))
	for _, s := range co.ring.Shards() {
		routing[s] = &shardRoute{State: co.health.State(s), VNodes: co.ring.VNodes()}
	}
	co.meshMu.Lock()
	defer co.meshMu.Unlock()
	for id := range co.meshes {
		if order := co.routable(id); len(order) > 0 {
			routing[order[0]].Meshes = append(routing[order[0]].Meshes, id)
		}
	}
	return map[string]any{
		"cluster": &co.counters,
		"shards":  co.health.Snapshot(),
		"routing": routing,
		"jobs":    co.mgr.StateCounts(),
		"meshes":  len(co.meshes),
		"faults":  &co.faults,
	}
}
