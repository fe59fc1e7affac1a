package server

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
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
//	tiling:<opKey>/k<K>                             *tile.Tiling
//	op:<sha256>/p<P>/g<G>/<boundary>                assembled *operator.Operator
//	qop:<sha256>/p<P>/<boundary>/<pts-sha256>       custom-point operator for
//	                                                a repeated query batch
//
// All cached artifacts are immutable after construction and safe to share
// across concurrently running jobs and queries (every Evaluator entry point
// draws its per-goroutine workers from a pool).
type Artifacts struct {
	cache *Cache
	// evalWorkers is stamped into every built Evaluator's Options. It does
	// not participate in cache keys: worker count affects execution
	// concurrency, never results.
	evalWorkers int
	// store, when non-nil, is the disk tier under the LRU: uploaded meshes
	// and assembled operators are written through, and cache misses fall
	// back to disk, inside the cache's per-key build, before recomputation
	// — so journal-replayed jobs survive a cold cache and operator-scheme
	// jobs skip re-assembly entirely after a restart.
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

// applyFields applies op to every field through one ApplyBlock, records
// the apply and returns one output per field (one backing allocation, so
// the apply itself is allocation-free on top of it) with the modeled
// counters. Jobs and queries both evaluate through here.
func (a *Artifacts) applyFields(op *operator.Operator, fields []*dg.Field) ([][]float64, metrics.Counters, error) {
	coeffs := make([][]float64, len(fields))
	for i, f := range fields {
		if err := op.CheckField(f); err != nil {
			return nil, metrics.Counters{}, err
		}
		coeffs[i] = f.Coeffs
	}
	backing := make([]float64, len(fields)*op.Rows)
	outs := make([][]float64, len(fields))
	for i := range outs {
		outs[i] = backing[i*op.Rows : (i+1)*op.Rows : (i+1)*op.Rows]
	}
	if err := op.ApplyBlock(coeffs, outs, op.Workers); err != nil {
		return nil, metrics.Counters{}, err
	}
	a.ops.RecordApply(len(fields))
	return outs, op.ApplyBlockCounters(len(fields)), nil
}

// fields returns the projected inputs of an operator apply: the named
// fields in order, or def alone when names is empty (a one-field request
// applies to its evaluator's field).
func (a *Artifacts) fields(m *mesh.Mesh, meshID string, p int, names []string, def *dg.Field) ([]*dg.Field, error) {
	if len(names) == 0 {
		return []*dg.Field{def}, nil
	}
	fields := make([]*dg.Field, len(names))
	for i, name := range names {
		var err error
		if fields[i], _, err = a.Field(m, meshID, p, name); err != nil {
			return nil, err
		}
	}
	return fields, nil
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
// misses fall back to the durable store inside the cache's per-key build,
// so an eviction or a restart does not orphan journaled jobs and a herd of
// cold lookups decodes the file once. A false return means the mesh is
// neither resident nor on disk and must be re-uploaded.
func (a *Artifacts) Mesh(id string) (*mesh.Mesh, bool) {
	v, _, err := a.cache.GetOrBuild("mesh:"+id, func() (any, int64, error) {
		if a.store == nil {
			return nil, 0, errNoStore
		}
		m, err := a.store.LoadMesh(id)
		if err != nil {
			return nil, 0, err
		}
		return m, meshBytes(m), nil
	})
	if err != nil {
		return nil, false
	}
	return v.(*mesh.Mesh), true
}

// errNoStore fails a cache build that has no disk tier to fall back to.
var errNoStore = errors.New("no artifact store attached")

// Field returns the projected dG field for (mesh, p, fieldKind), building
// and caching it on first use. The boolean reports a cache hit.
func (a *Artifacts) Field(m *mesh.Mesh, meshID string, p int, fieldKind string) (*dg.Field, bool, error) {
	fn, ok := FieldFuncs[fieldKind]
	if !ok {
		return nil, false, fault.Permanent(fmt.Errorf("unknown field %q (have %v)", fieldKind, FieldNames()))
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

// EvalKey returns the cache key of the evaluator for the given parameters.
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
// use. The boolean reports a cache hit. A tiling depends on the geometry
// alone, so geoKey is ev's OpKey and one tiling serves every field.
func (a *Artifacts) Tiling(ev *core.Evaluator, geoKey string, k int) (*tile.Tiling, bool, error) {
	key := fmt.Sprintf("tiling:%s/k%d", geoKey, k)
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

// appendOpHit appends the cache hit an operator source counts as:
// "operator" from memory, "operator-disk" from the store, none when
// assembled.
func appendOpHit(hits []string, src string) []string {
	switch src {
	case OpSrcMemory:
		return append(hits, "operator")
	case OpSrcDisk:
		return append(hits, "operator-disk")
	}
	return hits
}

// Operator returns the assembled post-processing operator for ev's
// (mesh, grid, kernel, h) tuple. Resolution is tiered: the in-process LRU,
// then the disk store (CRC- and key-verified, mmap-backed where the
// platform allows), then assembly — whose result is written through to the
// store so the next restart skips the geometry. The returned source is one
// of OpSrcMemory, OpSrcDisk, OpSrcAssembled.
func (a *Artifacts) Operator(ev *core.Evaluator, meshID string) (*operator.Operator, string, error) {
	key := OpKey(meshID, ev.Opt.P, ev.Opt.GridDegree, ev.Opt.Boundary)
	return a.operatorFor(key, ev, nil)
}

// operatorFor resolves one operator cache key through the memory and disk
// tiers, assembling ev's operator at pts (nil = its grid) and persisting it
// on a full miss. Assembly stamps ev's normalised Opt.Workers on the
// operator as its apply concurrency; a file carries no worker count, so a
// disk-loaded operator is stamped with the same value here — an operator
// packed on a 32-core box never fans out past this server's -eval-workers.
func (a *Artifacts) operatorFor(key string, ev *core.Evaluator, pts []geom.Point) (*operator.Operator, string, error) {
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
				op.Workers = ev.Opt.Workers
				src = OpSrcDisk
				a.ops.RowsTotal.Add(uint64(op.Rows))
				return op, op.Bytes() + 1024, nil
			}
		}
		start := time.Now()
		op, cs, err := ev.AssembleOperator(pts)
		if err != nil {
			return nil, 0, err
		}
		a.ops.RowsTotal.Add(uint64(op.Rows))
		a.ops.RecordAssembly(cs.RowsIntegrated, cs.RowsStamped, cs.ClassesDemoted, time.Since(start))
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

// QueryOperator returns an assembled operator whose rows are the given
// query positions, keyed by the content hash of the position batch. The
// target workload is a client re-evaluating the same positions against new
// fields each time step (streamline resampling): the first query ever pays
// per-point assembly, every later one — including the first after a
// restart, via the disk tier — is a sparse apply. The returned source is
// one of OpSrcMemory, OpSrcDisk, OpSrcAssembled.
func (a *Artifacts) QueryOperator(ev *core.Evaluator, meshID string, pts []geom.Point) (*operator.Operator, string, error) {
	return a.operatorFor(queryOpKey(ev, meshID, pts), ev, pts)
}

// queryOpKey is the cache key of the operator QueryOperator assembles for
// ev at pts.
func queryOpKey(ev *core.Evaluator, meshID string, pts []geom.Point) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return fmt.Sprintf("qop:%s/p%d/%v/%x", meshID, ev.Opt.P, ev.Opt.Boundary, h.Sum(nil))
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
	// The slot lists (one entry per stored partial solution) are the
	// tiling; the per-point term covers the element-to-patch maps.
	return int64(t.PartialValues())*8 +
		int64(t.NumPoints)*4 + 1024
}
