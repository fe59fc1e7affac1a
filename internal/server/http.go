package server

// The public HTTP surface. One route table serves a single unstencild and
// the cluster coordinator alike: each plugs in as a Backend, and the
// handlers here own request decoding, the JSON and error envelopes, the
// body limit, and the recovery and logging middleware.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

// Backend is what the public API serves: *Server evaluates locally, the
// cluster coordinator routes to shards. Failures a client should see with a
// specific status are *Error values; anything else answers 500.
type Backend interface {
	// PutMesh stores an uploaded mesh; raw is its encoded form.
	PutMesh(ctx context.Context, m *mesh.Mesh, raw []byte) (any, error)
	// MeshInfo describes a resident mesh.
	MeshInfo(ctx context.Context, id string) (any, error)
	// Submit accepts a job.
	Submit(ctx context.Context, spec JobSpec) (JobStatus, error)
	// Status reports one job; Jobs lists every retained one.
	Status(ctx context.Context, id string) (JobStatus, error)
	Jobs(ctx context.Context) []JobStatus
	// Result returns a finished job's encoded JobResult, which the handler
	// writes as is.
	Result(ctx context.Context, id string) ([]byte, error)
	// Cancel aborts a queued or running job.
	Cancel(ctx context.Context, id string) error
	// Query evaluates a validated batch query.
	Query(ctx context.Context, req *QueryRequest) (any, error)
	// Readiness reports whether traffic should be routed here, the /readyz
	// body, and, when not ready, the Retry-After seconds (0 omits it).
	Readiness() (ready bool, body map[string]any, retryAfter int)
	// Metrics is the /debug/metrics body.
	Metrics() map[string]any
}

// Error is a failure with the HTTP status a client receives for it.
// RetryAfter, when positive, is sent as a Retry-After header.
type Error struct {
	Status     int
	RetryAfter int
	Err        error
}

// Error implements error.
func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Errorf returns an *Error with the given status.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Err: fmt.Errorf(format, args...)}
}

// ErrorKind is the error_kind a client reads for err: the kind named by the
// first error in its chain that has an ErrorKind method (the cluster tags
// shard loss this way), or "".
func ErrorKind(err error) string {
	var k interface{ ErrorKind() string }
	if errors.As(err, &k) {
		return k.ErrorKind()
	}
	return ""
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error     string `json:"error"`
	ErrorKind string `json:"error_kind,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr answers err with its *Error status (500 when it carries none).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var e *Error
	if errors.As(err, &e) {
		status = e.Status
		if e.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
		}
	}
	writeJSON(w, status, errorBody{Error: err.Error(), ErrorKind: ErrorKind(err)})
}

// reply writes v with status, or err if it is non-nil.
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, status, v)
}

// decodeStrict decodes one JSON value, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// NewHandler registers the public routes over b on mux, which may already
// hold backend-only routes, and wraps it in the body limit and the logging
// and recovery middleware. faults counts recovered panics.
func NewHandler(b Backend, mux *http.ServeMux, maxBody int64, log *slog.Logger, faults *metrics.FaultCounters) http.Handler {
	start := time.Now()
	uptimeMS := func() float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

	mux.HandleFunc("POST /v1/meshes", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		var m *mesh.Mesh
		if err == nil {
			m, err = mesh.Decode(bytes.NewReader(raw))
		}
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			writeErr(w, Errorf(http.StatusRequestEntityTooLarge, "mesh exceeds the %d-byte upload limit", tooLarge.Limit))
		case err != nil:
			writeErr(w, Errorf(http.StatusBadRequest, "%v", err))
		default:
			v, err := b.PutMesh(r.Context(), m, raw)
			reply(w, http.StatusCreated, v, err)
		}
	})
	mux.HandleFunc("GET /v1/meshes/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := b.MeshInfo(r.Context(), r.PathValue("id"))
		reply(w, http.StatusOK, v, err)
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		err := decodeStrict(r.Body, &req)
		if err == nil {
			err = req.normalize()
		}
		if err != nil {
			writeErr(w, Errorf(http.StatusBadRequest, "bad query: %v", err))
			return
		}
		v, err := b.Query(r.Context(), &req)
		reply(w, http.StatusOK, v, err)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := decodeStrict(r.Body, &spec); err != nil {
			writeErr(w, Errorf(http.StatusBadRequest, "bad job spec: %v", err))
			return
		}
		st, err := b.Submit(r.Context(), spec)
		reply(w, http.StatusAccepted, st, err)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": b.Jobs(r.Context())})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := b.Status(r.Context(), r.PathValue("id"))
		reply(w, http.StatusOK, st, err)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		body, err := b.Result(r.Context(), r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		err := b.Cancel(r.Context(), id)
		reply(w, http.StatusOK, map[string]any{"job_id": id, "cancelled": true}, err)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_ms": uptimeMS()})
	})
	// /readyz is what the coordinator's health checker polls on a shard:
	// unlike /healthz (liveness: the process answers), 503 means "up, but
	// route elsewhere for now".
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, body, retryAfter := b.Readiness()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
			if retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
		}
		writeJSON(w, status, body)
	})
	mux.HandleFunc("GET /debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		body := b.Metrics()
		body["uptime_ms"] = uptimeMS()
		writeJSON(w, http.StatusOK, body)
	})

	return instrument(log, faults, maxBody, mux)
}

// statusRecorder captures the response code for the request log and whether
// the response has started (a recovered panic can only become a 500 before
// the first write).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument bounds every request body at maxBody, logs every request,
// and converts a handler panic into a JSON 500 — counted, and logged with
// its stack — instead of a dropped response. http.ErrAbortHandler is
// re-panicked: it is the sanctioned way to abort a response.
func instrument(log *slog.Logger, faults *metrics.FaultCounters, maxBody int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				faults.PanicsRecovered.Add(1)
				if log != nil {
					log.Error("handler panic recovered",
						"method", r.Method, "path", r.URL.Path,
						"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
				}
				// A response already under way keeps its status.
				if rec.status == 0 {
					writeErr(rec, Errorf(http.StatusInternalServerError, "internal error: %v", v))
				}
			}
			if log != nil {
				log.Info("request",
					"method", r.Method, "path", r.URL.Path, "status", rec.status,
					"duration", time.Since(start), "remote", r.RemoteAddr)
			}
		}()
		// The injection site covers the whole request path: in panic mode it
		// exercises the recovery above, in error mode it simulates a handler
		// failing before writing a response.
		if err := fault.Inject(SiteHandler); err != nil {
			panic(err)
		}
		next.ServeHTTP(rec, r)
	})
}
