package server

import (
	"bytes"
	"math"
	"testing"
)

// checkEvalBounds fails t unless an accepted request's shared evaluation
// parameters meet the documented bounds.
func checkEvalBounds(t *testing.T, p int, boundary, field string, fields []string) {
	t.Helper()
	if p < 1 || p > 4 {
		t.Fatalf("accepted p %d outside 1..4", p)
	}
	if _, err := ParseBoundary(boundary); err != nil {
		t.Fatalf("accepted boundary %q: %v", boundary, err)
	}
	if len(fields) > MaxJobFields {
		t.Fatalf("accepted %d fields, cap %d", len(fields), MaxJobFields)
	}
	for _, name := range append([]string{field}, fields...) {
		if _, ok := FieldFuncs[name]; !ok {
			t.Fatalf("accepted unknown field %q", name)
		}
	}
}

// checkSpec fails t unless a spec Validate accepted names a scheme, P in
// 1..4, a grid degree of at most MaxGridDegree, a non-negative timeout and
// at most MaxJobFields known fields, batched only by the operator scheme.
func checkSpec(t *testing.T, s *JobSpec) {
	t.Helper()
	checkEvalBounds(t, s.P, s.Boundary, s.Field, s.Fields)
	switch s.Scheme {
	case "per-point", "per-element":
		if len(s.Fields) > 0 {
			t.Fatalf("accepted fields on the %s scheme", s.Scheme)
		}
	case "operator":
	default:
		t.Fatalf("accepted scheme %q", s.Scheme)
	}
	if s.GridDegree > MaxGridDegree {
		t.Fatalf("accepted grid_degree %d > %d", s.GridDegree, MaxGridDegree)
	}
	if s.TimeoutMS < 0 {
		t.Fatalf("accepted timeout_ms %d", s.TimeoutMS)
	}
}

// FuzzJobSpec: no body panics the spec decoder, and a spec Validate
// accepts as a job meets checkSpec, has blocks in 1..MaxBlocks and no
// points.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"mesh_id":"m","scheme":"per-point","p":1}`,
		`{"mesh_id":"m","scheme":"per-element","p":2,"blocks":7,"boundary":"one-sided","grid_degree":-1,"allow_partial":true}`,
		`{"mesh_id":"m","scheme":"operator","p":4,"grid_degree":32,"fields":["poly","gauss"],"timeout_ms":300}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s JobSpec
		if decodeStrict(bytes.NewReader(body), &s) != nil || s.Validate(16, false) != nil {
			return
		}
		checkSpec(t, &s)
		if len(s.Points) > 0 {
			t.Fatalf("accepted a job with %d points", len(s.Points))
		}
		if s.Blocks < 1 || s.Blocks > MaxBlocks {
			t.Fatalf("accepted blocks %d, want 1..%d", s.Blocks, MaxBlocks)
		}
	})
}

// FuzzQueryRequest: no body panics the decoder of a /v1/query body (a
// JobSpec with points), and a spec Validate accepts as a query meets
// checkSpec and checkQuery.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"mesh_id":"m","scheme":"per-point","p":1,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","scheme":"per-point","p":2,"boundary":"one-sided","field":"gauss","points":[[0,1],[0.3,0.4]]}`,
		`{"mesh_id":"m","scheme":"operator","p":3,"fields":["sincos","gauss","poly"],"points":[[5.3,-2],[1e300,0]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s JobSpec
		if decodeStrict(bytes.NewReader(body), &s) != nil || s.Validate(16, true) != nil {
			return
		}
		checkSpec(t, &s)
		checkQuery(t, &s)
	})
}

// checkQuery fails t unless an accepted query's points and the keys that do
// not apply to them meet the documented bounds.
func checkQuery(t *testing.T, s *JobSpec) {
	t.Helper()
	if s.Scheme == "per-element" || s.GridDegree != 0 || s.Blocks != 0 {
		t.Fatalf("accepted a query with scheme %q, grid_degree %d, blocks %d", s.Scheme, s.GridDegree, s.Blocks)
	}
	if n := len(s.Points); n < 1 || n > MaxQueryPoints {
		t.Fatalf("accepted %d points, want 1..%d", n, MaxQueryPoints)
	}
	for i, p := range s.Points {
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("accepted non-finite points[%d] %v", i, p)
			}
			if s.Boundary == "one-sided" && (c < 0 || c > 1) {
				t.Fatalf("accepted one-sided points[%d] %v outside the unit square", i, p)
			}
		}
	}
}
