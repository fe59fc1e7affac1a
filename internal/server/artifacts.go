package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/tile"
)

// Artifacts is the typed façade over the LRU cache. Every derived artifact
// is keyed by the content hash of the mesh it came from plus the parameters
// that shaped it, so identical requests — possibly from different clients —
// share one resident copy:
//
//	mesh:<sha256>                                   decoded *mesh.Mesh
//	field:<sha256>/p<P>/<field>                     projected *dg.Field
//	eval:<sha256>/p<P>/g<G>/<boundary>/<field>      *core.Evaluator (kernel
//	                                                tables, grids, points)
//	tiling:<evalKey>/k<K>                           *tile.Tiling
//	op:<sha256>/p<P>/g<G>/<boundary>                assembled *operator.Operator
//	qop:<sha256>/p<P>/<boundary>/<pts-sha256>       custom-point operator for
//	                                                a repeated query batch
//
// All cached artifacts are immutable after construction and safe to share
// across concurrently running jobs and queries (Evaluator's Run methods and
// EvalBatch draw per-goroutine workers from a pool; single-shot EvalAt,
// which mutates shared scratch state, is not used by the service).
type Artifacts struct {
	cache *Cache
	// evalWorkers is stamped into every built Evaluator's Options. It does
	// not participate in cache keys: worker count affects execution
	// concurrency, never results.
	evalWorkers int
	// store, when non-nil, is the disk tier under the LRU: uploaded meshes
	// and assembled operators are written through, and cache misses fall
	// back to disk before recomputation — so journal-replayed jobs survive
	// a cold cache and operator-scheme jobs skip re-assembly entirely
	// after a restart.
	store *artifact.Store
	// log receives store-degradation warnings (persist failures); nil
	// disables.
	log *slog.Logger
	// ops accumulates operator apply traffic and assembly outcomes for
	// /debug/metrics.
	ops metrics.OperatorCounters
}

// NewArtifacts wraps cache; evalWorkers <= 0 means GOMAXPROCS.
func NewArtifacts(cache *Cache, evalWorkers int) *Artifacts {
	return &Artifacts{cache: cache, evalWorkers: evalWorkers}
}

// SetStore attaches the durable artifact store. Call before serving
// requests.
func (a *Artifacts) SetStore(st *artifact.Store) { a.store = st }

// SetLog attaches a logger for store-degradation warnings.
func (a *Artifacts) SetLog(log *slog.Logger) { a.log = log }

// Store exposes the disk tier, if attached (metrics, tests).
func (a *Artifacts) Store() *artifact.Store { return a.store }

// Ops exposes the operator apply and assembly counters.
func (a *Artifacts) Ops() *metrics.OperatorCounters { return &a.ops }

// applyFields applies op to each field into the caller-owned outs[i] (one
// field is the SpMV, several the SpMM), records the apply and returns its
// modeled counters. Jobs and queries both evaluate through here; they
// differ only in where outs comes from.
func (a *Artifacts) applyFields(op *operator.Operator, fields []*dg.Field, outs [][]float64) (metrics.Counters, error) {
	nf := len(fields)
	var (
		total metrics.Counters
		err   error
	)
	if nf == 1 {
		err = op.ApplyInto(fields[0], outs[0])
		total = op.ApplyCounters()
	} else {
		coeffs := make([][]float64, nf)
		for i, f := range fields {
			coeffs[i] = f.Coeffs
		}
		err = op.ApplyBlock(coeffs, outs, op.Workers)
		total = op.ApplyBlockCounters(nf)
	}
	if err != nil {
		return metrics.Counters{}, err
	}
	a.ops.RecordApply(nf)
	return total, nil
}

// FieldFuncs are the analytic input fields a job may request; the service
// projects them onto the mesh's broken polynomial space once per
// (mesh, P, field) and caches the result. "sincos" is the paper's periodic
// test function.
var FieldFuncs = map[string]func(geom.Point) float64{
	"sincos": func(p geom.Point) float64 {
		return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
	},
	"gauss": func(p geom.Point) float64 {
		dx, dy := p.X-0.5, p.Y-0.5
		return math.Exp(-(dx*dx + dy*dy) / 0.02)
	},
	"poly": func(p geom.Point) float64 {
		return p.X*p.X + p.Y*p.Y - p.X*p.Y
	},
}

// FieldNames returns the supported field kinds, sorted.
func FieldNames() []string {
	names := make([]string, 0, len(FieldFuncs))
	for k := range FieldFuncs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// PutMesh stores a decoded mesh and returns its content-hash id. With a
// durable store attached the mesh is also written through to disk; a store
// error is returned alongside the id (the mesh is still resident in memory,
// so the caller can choose to serve degraded rather than reject).
func (a *Artifacts) PutMesh(m *mesh.Mesh) (string, error) {
	id := m.ContentHash()
	a.cache.Put("mesh:"+id, m, meshBytes(m))
	if a.store != nil {
		if _, err := a.store.SaveMesh(m); err != nil {
			return id, err
		}
	}
	return id, nil
}

// Mesh returns the resident mesh with the given content hash, if any. Cache
// misses fall back to the durable store (re-admitting the mesh to the
// cache), so an eviction or a restart does not orphan journaled jobs. A
// false return means the mesh is neither resident nor on disk and must be
// re-uploaded.
func (a *Artifacts) Mesh(id string) (*mesh.Mesh, bool) {
	v, ok := a.cache.Get("mesh:" + id)
	if ok {
		return v.(*mesh.Mesh), true
	}
	if a.store != nil {
		if m, err := a.store.LoadMesh(id); err == nil {
			a.cache.Put("mesh:"+id, m, meshBytes(m))
			return m, true
		}
	}
	return nil, false
}

// Field returns the projected dG field for (mesh, p, fieldKind), building
// and caching it on first use. The boolean reports a cache hit.
func (a *Artifacts) Field(m *mesh.Mesh, meshID string, p int, fieldKind string) (*dg.Field, bool, error) {
	fn, ok := FieldFuncs[fieldKind]
	if !ok {
		return nil, false, fmt.Errorf("unknown field %q (have %v)", fieldKind, FieldNames())
	}
	key := fmt.Sprintf("field:%s/p%d/%s", meshID, p, fieldKind)
	v, hit, err := a.cache.GetOrBuild(key, func() (any, int64, error) {
		f := dg.Project(m, p, fn, 4)
		return f, int64(len(f.Coeffs))*8 + 256, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*dg.Field), hit, nil
}

// EvalKey returns the cache key of the evaluator for the given parameters;
// tilings derive their keys from it.
func EvalKey(meshID string, p, gridDegree int, boundary core.Boundary, fieldKind string) string {
	return fmt.Sprintf("eval:%s/p%d/g%d/%v/%s", meshID, p, gridDegree, boundary, fieldKind)
}

// Evaluator returns the resident core.Evaluator for the given parameters,
// building mesh-derived state (SIAC kernel tables, computation grid, hash
// grids) on first use. The boolean reports a cache hit.
func (a *Artifacts) Evaluator(m *mesh.Mesh, meshID string, p, gridDegree int, boundary core.Boundary, fieldKind string) (*core.Evaluator, bool, error) {
	f, _, err := a.Field(m, meshID, p, fieldKind)
	if err != nil {
		return nil, false, err
	}
	key := EvalKey(meshID, p, gridDegree, boundary, fieldKind)
	v, hit, err := a.cache.GetOrBuild(key, func() (any, int64, error) {
		ev, err := core.NewEvaluator(f, core.Options{
			P:          p,
			GridDegree: gridDegree,
			Boundary:   boundary,
			Workers:    a.evalWorkers,
		})
		if err != nil {
			return nil, 0, err
		}
		return ev, evaluatorBytes(ev), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*core.Evaluator), hit, nil
}

// Tiling returns the resident k-patch tiling for ev, building it on first
// use. The boolean reports a cache hit.
func (a *Artifacts) Tiling(ev *core.Evaluator, evalKey string, k int) (*tile.Tiling, bool, error) {
	key := fmt.Sprintf("tiling:%s/k%d", evalKey, k)
	v, hit, err := a.cache.GetOrBuild(key, func() (any, int64, error) {
		t := ev.NewTiling(k)
		return t, tilingBytes(t), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*tile.Tiling), hit, nil
}

// OpKey returns the cache key of the assembled grid operator. Operators
// are field-independent — the weights depend only on (mesh, grid, kernel,
// h) — so the key deliberately omits the field kind: jobs post-processing
// different fields on a warm mesh share one resident operator. The grid
// degree is the evaluator's normalized value so grid_degree 0 and its
// explicit default hit the same entry.
func OpKey(meshID string, p, gridDegree int, boundary core.Boundary) string {
	return fmt.Sprintf("op:%s/p%d/g%d/%v", meshID, p, gridDegree, boundary)
}

// Operator sources, reported so jobs and queries can say whether the
// geometry bill was paid now, earlier this process, or by a previous
// incarnation whose work was persisted.
const (
	// OpSrcMemory: served warm from the in-process LRU.
	OpSrcMemory = "memory"
	// OpSrcDisk: LRU miss answered by the artifact store — a cold start
	// warmed from disk instead of re-assembling.
	OpSrcDisk = "disk"
	// OpSrcAssembled: built from scratch (and written through to the
	// store when one is attached).
	OpSrcAssembled = "assembled"
)

// Operator returns the assembled post-processing operator for ev's
// (mesh, grid, kernel, h) tuple. Resolution is tiered: the in-process LRU,
// then the disk store (CRC- and key-verified, mmap-backed where the
// platform allows), then assembly — whose result is written through to the
// store so the next restart skips the geometry. The returned source is one
// of OpSrcMemory, OpSrcDisk, OpSrcAssembled.
func (a *Artifacts) Operator(ev *core.Evaluator, meshID string) (*operator.Operator, string, error) {
	key := OpKey(meshID, ev.Opt.P, ev.Opt.GridDegree, ev.Opt.Boundary)
	return a.operatorFor(key, ev.Opt.Workers, func() (*operator.Operator, error) {
		return ev.AssembleOperator(core.AssembleOpts{SigCache: a.signatureCache(meshID, ev)})
	})
}

// sigCacheKey scopes one cached canonical-signature hash to a row: the
// exact position bit patterns plus the quantised one-sided kernel-class
// keys. Everything else the hash depends on — mesh geometry, kernel order,
// h — is fixed by the cache instance's own LRU key.
type sigCacheKey struct {
	xb, yb uint64
	kx, ky int64
}

// sigCache is the server's core.SignatureCache: a mesh-scoped memo of
// canonical row-signature hashes, shared by every operator variant
// (grid degree, boundary treatment) assembled against the same mesh at the
// same kernel, so only the first variant pays per-row canonicalisation.
// Entries are only ever consulted by the congruence prefilter, whose
// groupings are certified bitwise downstream — a stale or colliding entry
// can cost speed, never correctness.
type sigCache struct {
	mu sync.RWMutex
	m  map[sigCacheKey]uint64
}

func (c *sigCache) Lookup(xb, yb uint64, kx, ky int64) (uint64, bool) {
	c.mu.RLock()
	h, ok := c.m[sigCacheKey{xb, yb, kx, ky}]
	c.mu.RUnlock()
	return h, ok
}

func (c *sigCache) Store(xb, yb uint64, kx, ky int64, h uint64) {
	c.mu.Lock()
	c.m[sigCacheKey{xb, yb, kx, ky}] = h
	c.mu.Unlock()
}

// signatureCache returns the shared signature cache for ev's
// (mesh, kernel order, kernel scale) tuple, creating it on first use. The
// LRU key pins exactly the parameters the cached hashes are a function of
// beyond the per-row key — grid degree and boundary deliberately absent,
// since sharing across those variants is the point. Returns nil (no
// caching) only if the LRU refuses the build.
func (a *Artifacts) signatureCache(meshID string, ev *core.Evaluator) core.SignatureCache {
	key := fmt.Sprintf("sig:%s/p%d/h%x", meshID, ev.Opt.P, math.Float64bits(ev.H))
	// Charge roughly one entry per grid point: 40 B of key+value plus map
	// overhead. The estimate only steers LRU eviction pressure.
	v, _, err := a.cache.GetOrBuild(key, func() (any, int64, error) {
		return &sigCache{m: make(map[sigCacheKey]uint64)}, int64(ev.NumPoints())*48 + 1024, nil
	})
	if err != nil {
		return nil
	}
	return v.(*sigCache)
}

// operatorFor resolves one operator cache key through the memory and disk
// tiers, assembling (and persisting) on a full miss. workers is the
// requesting evaluator's normalised Opt.Workers: assembly stamps it on the
// operators it builds, and a disk-loaded operator is re-stamped with it
// here, since the worker count in the file is the *writer's* — an operator
// packed on a 32-core box must not fan out past this server's
// -eval-workers.
func (a *Artifacts) operatorFor(key string, workers int, assemble func() (*operator.Operator, error)) (*operator.Operator, string, error) {
	src := OpSrcMemory // waiters on an in-flight build also report memory
	v, _, err := a.cache.GetOrBuild(key, func() (any, int64, error) {
		// Disk tier before re-assembly. The LRU charge is the operator's
		// array byte size either way: for an mmap-backed operator those are
		// file-backed pages rather than heap, but they bound address
		// space and page-cache pressure just the same. A file in a retired
		// format fails the load with ErrVersion, is deleted by the store,
		// and is repaired by the assembly and write-through below.
		if a.store != nil {
			if op, _, err := a.store.LoadOperator(key, true); err == nil {
				op.Workers = workers
				src = OpSrcDisk
				a.recordOperator(op)
				return op, op.Bytes() + 1024, nil
			}
		}
		op, err := assemble()
		if err != nil {
			return nil, 0, err
		}
		a.recordOperator(op)
		src = OpSrcAssembled
		if a.store != nil {
			if err := a.store.SaveOperator(key, op); err != nil && a.log != nil {
				// The operator stays resident; only restart warmth degrades.
				a.log.Warn("operator not persisted; it will be re-assembled after a restart",
					"key", key, "err", err)
			}
		}
		return op, op.Bytes() + 1024, nil
	})
	if err != nil {
		return nil, "", err
	}
	return v.(*operator.Operator), src, nil
}

// recordOperator folds one operator admission (assembled or loaded from
// disk) into the operator counters, plus the congruence-first assembly
// outcome when the operator carries one (disk loads do not).
func (a *Artifacts) recordOperator(op *operator.Operator) {
	a.ops.RowsTotal.Add(uint64(op.Rows))
	if cs := op.Congruence; cs != nil {
		a.ops.RecordAssembly(cs.RowsIntegrated, cs.RowsStamped, cs.ClassesDemoted, op.AssemblyWall)
		a.ops.RecordSigCache(cs.SigCacheLookups, cs.SigCacheHits)
	}
}

// QueryOperator returns an assembled operator whose rows are the given
// query positions, keyed by the content hash of the position batch. The
// target workload is a client re-evaluating the same positions against new
// fields each time step (streamline resampling): the first query ever pays
// per-point assembly, every later one — including the first after a
// restart, via the disk tier — is a sparse apply. The returned source is
// one of OpSrcMemory, OpSrcDisk, OpSrcAssembled.
func (a *Artifacts) QueryOperator(ev *core.Evaluator, meshID string, pts []geom.Point) (*operator.Operator, string, error) {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	key := fmt.Sprintf("qop:%s/p%d/%v/%x", meshID, ev.Opt.P, ev.Opt.Boundary, h.Sum(nil))
	return a.operatorFor(key, ev.Opt.Workers, func() (*operator.Operator, error) {
		return ev.AssembleOperator(core.AssembleOpts{Points: pts, SigCache: a.signatureCache(meshID, ev)})
	})
}

// Stats exposes the underlying cache counters.
func (a *Artifacts) Stats() CacheStats { return a.cache.Stats() }

// Rough per-artifact resident-size estimates driving LRU eviction. They
// only need to be proportional to actual footprint.

func meshBytes(m *mesh.Mesh) int64 {
	return int64(m.NumVerts())*16 + int64(m.NumTris())*12 + 256
}

func evaluatorBytes(ev *core.Evaluator) int64 {
	// Grid points (Elem + Pos), cached element bounds, and two hash grids
	// (one id plus cell bookkeeping per stored item).
	return int64(ev.NumPoints())*32 +
		int64(ev.Mesh.NumTris())*48 +
		4096
}

func tilingBytes(t *tile.Tiling) int64 {
	// Slot lists plus the dense per-patch point->slot index, the dominant
	// term (K × NumPoints int32s).
	return int64(t.PartialValues())*8 +
		int64(t.K)*int64(t.NumPoints)*4 +
		int64(t.NumPoints)*4 + 1024
}
