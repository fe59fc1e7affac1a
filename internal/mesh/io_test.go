package mesh

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"unstencil/internal/geom"
)

// Non-finite vertex coordinates must never survive decoding or validation:
// they would poison every downstream geometric predicate (bounding boxes,
// hash-grid cell indices, clipping) with NaN-propagation rather than a clean
// error.
func TestValidateRejectsNonFiniteVerts(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		m := Structured(2)
		m.Verts[1] = geom.Pt(v, 0.5)
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted vertex coordinate %v", v)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("coordinate %v: error %q does not mention non-finite", v, err)
		}
	}
}

func TestDecodeRejectsNonFiniteVerts(t *testing.T) {
	// Standard JSON cannot spell NaN/Inf literals, but out-of-range numbers
	// like 1e999 are the closest a malicious or corrupted payload gets; they
	// must be rejected, not silently clamped.
	in := `{"format":"unstencil-mesh-v1","verts":[0,0,1e999,0,0,1],"tris":[0,1,2]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("Decode accepted an overflowing vertex coordinate")
	}
}

// goldenLV512 is the content hash of SizedLowVariance(512, 1), the
// request benchmark's per-element mesh. A change to it is a change to mesh
// generation and must be deliberate.
const goldenLV512 = "6d187adcd5fecde369c10f6643bbf345db79699f1c720e4be1aeaa4be154251b"

func TestContentHashStable(t *testing.T) {
	gen := map[string]func() (*Mesh, error){
		"structured": func() (*Mesh, error) { return Structured(4), nil },
		"sized-lv":   func() (*Mesh, error) { return SizedLowVariance(512, 1) },
		"sized-hv":   func() (*Mesh, error) { return SizedHighVariance(512, 4, 1) },
	}
	for name, g := range gen {
		m, err := g()
		if err != nil {
			t.Fatal(err)
		}
		h1 := m.ContentHash()
		if h2 := m.ContentHash(); h1 != h2 {
			t.Fatalf("%s: hash not deterministic: %s vs %s", name, h1, h2)
		}
		if len(h1) != 64 {
			t.Fatalf("%s: hash length %d, want 64 hex chars", name, len(h1))
		}
		// Generating again must give the same mesh: Delaunay insertion may
		// not depend on map iteration order.
		again, err := g()
		if err != nil {
			t.Fatal(err)
		}
		if h := again.ContentHash(); h != h1 {
			t.Errorf("%s: second generation hashed %s, first %s", name, h, h1)
		}

		// Round-tripping through Encode/Decode must preserve the hash — the
		// property the service's upload-once cache keying relies on.
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.ContentHash() != h1 {
			t.Errorf("%s: Encode/Decode round trip changed the content hash", name)
		}
	}
	m, err := SizedLowVariance(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := m.ContentHash(); h != goldenLV512 {
		t.Errorf("SizedLowVariance(512, 1) hashed %s, golden %s", h, goldenLV512)
	}
}

func TestContentHashDistinguishes(t *testing.T) {
	a := Structured(4)
	b := Structured(4)
	b.Verts[0] = geom.Pt(b.Verts[0].X+1e-12, b.Verts[0].Y)
	if a.ContentHash() == b.ContentHash() {
		t.Error("hash collision on perturbed vertex")
	}
	c := Structured(4)
	c.Tris[0][0], c.Tris[0][1], c.Tris[0][2] = c.Tris[0][1], c.Tris[0][2], c.Tris[0][0]
	if a.ContentHash() == c.ContentHash() {
		t.Error("hash collision on rotated connectivity")
	}
	d := Structured(5)
	if a.ContentHash() == d.ContentHash() {
		t.Error("hash collision on different mesh size")
	}
}

// Regression: PartitionWeighted used to panic (negative slice bound) when k
// exceeds the element count and the recursive bisection's per-side quotas
// outran the elements available. It must instead leave surplus patches
// empty while covering every element exactly once.
func TestPartitionMorePatchesThanElements(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		m := Structured(n) // 2n² triangles
		for _, k := range []int{m.NumTris() + 1, m.NumTris() + 7, 3 * m.NumTris()} {
			for _, weighted := range []bool{false, true} {
				var ids []int
				if weighted {
					w := make([]float64, m.NumTris())
					for i := range w {
						w[i] = float64(i%5 + 1)
					}
					ids = PartitionWeighted(m, k, w)
				} else {
					ids = Partition(m, k)
				}
				if len(ids) != m.NumTris() {
					t.Fatalf("n=%d k=%d: %d ids", n, k, len(ids))
				}
				for e, id := range ids {
					if id < 0 || id >= k {
						t.Fatalf("n=%d k=%d: element %d in out-of-range patch %d", n, k, e, id)
					}
				}
			}
		}
	}
}
