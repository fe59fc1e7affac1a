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

// FuzzQueryRequest: no body panics the query decoder, and an accepted one
// holds 1..MaxQueryPoints finite points, inside the unit square when
// one-sided, and at most MaxJobFields known fields, batched only through
// the operator.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"mesh_id":"m","p":1,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":2,"boundary":"one-sided","field":"gauss","points":[[0,1],[0.3,0.4]]}`,
		`{"mesh_id":"m","p":3,"use_operator":true,"fields":["sincos","gauss","poly"],"points":[[5.3,-2],[1e300,0]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q QueryRequest
		if decodeStrict(bytes.NewReader(body), &q) != nil || q.normalize() != nil {
			return
		}
		checkEvalBounds(t, q.P, q.Boundary, q.Field, q.Fields)
		if len(q.Fields) > 0 && !q.UseOperator {
			t.Fatal("accepted fields without use_operator")
		}
		if n := len(q.Points); n < 1 || n > MaxQueryPoints {
			t.Fatalf("accepted %d points, want 1..%d", n, MaxQueryPoints)
		}
		for i, p := range q.Points {
			for _, c := range p {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("accepted non-finite points[%d] %v", i, p)
				}
				if q.Boundary == "one-sided" && (c < 0 || c > 1) {
					t.Fatalf("accepted one-sided points[%d] %v outside the unit square", i, p)
				}
			}
		}
	})
}

// FuzzJobSpec: no body panics the job decoder, and an accepted spec names
// a scheme, P in 1..4, blocks in 1..MaxBlocks, a grid degree of at most
// MaxGridDegree and at most MaxJobFields known fields, batched only by the
// operator scheme.
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
		if decodeStrict(bytes.NewReader(body), &s) != nil || s.Validate(16) != nil {
			return
		}
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
		if s.Blocks < 1 || s.Blocks > MaxBlocks {
			t.Fatalf("accepted blocks %d, want 1..%d", s.Blocks, MaxBlocks)
		}
		if s.GridDegree > MaxGridDegree {
			t.Fatalf("accepted grid_degree %d > %d", s.GridDegree, MaxGridDegree)
		}
		if s.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", s.TimeoutMS)
		}
	})
}
