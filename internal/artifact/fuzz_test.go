package artifact

import (
	"bytes"
	"testing"

	"unstencil/internal/mesh"
)

// FuzzArtifactDecode feeds arbitrary byte strings through the full decode
// surface — Parse, CRC verification, and all three kind decoders — seeded
// with valid encodes of each artifact kind. The contract under mutation
// (truncation, bit flips, section-table corruption, wrong versions) is:
// an error or a valid artifact, never a panic, and anything an operator
// decoder accepts must still satisfy the invariants the applies index by
// (Operator.Validate runs inside the decoders, so acceptance implies them).
func FuzzArtifactDecode(f *testing.F) {
	m := mesh.Structured(3)
	var buf bytes.Buffer
	if _, err := EncodeMesh(&buf, "mesh:"+m.ContentHash(), m); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))

	buf.Reset()
	if _, err := EncodeField(&buf, "field:seed", projectTestField(m)); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))

	// Operator seeds, all version 4: random rows (every block its own
	// pool entry) with and without a permutation, and congruent rows
	// stamped from shared refs.
	f.Add(encodeOp(f, "op:seed", testOperator(f, 25, 18, 6, true)))
	f.Add(encodeOp(f, "op:seed2", testOperator(f, 10, 9, 3, false)))
	_, stamped := congruentOperator(f, 60, 20, 3)
	f.Add(encodeOp(f, "op:shared", stamped))

	// Structural edge cases the mutator should start from: the retired
	// operator versions, wrong magic, bare header, empty input.
	f.Add(legacyOperatorContainer("op:v3", stamped, 3))
	f.Add(legacyOperatorContainer("op:v2", stamped, 2))
	f.Add([]byte("UNSA"))
	f.Add([]byte{})
	f.Add([]byte("GPKG not ours at all, padded to header size..."))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Every accepted container must survive the full integrity pass and
		// each decoder without panicking, whatever its kind claims.
		_ = c.VerifyAll()
		_, _ = c.Key()
		if m, err := c.DecodeMesh(""); err == nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("DecodeMesh accepted an invalid mesh: %v", err)
			}
		}
		if meta, coeffs, err := c.DecodeField(""); err == nil {
			if len(coeffs) != meta.NumElems*meta.BasisN {
				t.Fatalf("DecodeField accepted inconsistent shape %+v with %d coeffs", meta, len(coeffs))
			}
		}
		if op, err := c.DecodeOperator(""); err == nil {
			// Acceptance implies Operator.Validate passed; a cheap apply
			// proves the operator really is safe to index.
			in := make([]float64, op.Cols)
			out := make([]float64, op.Rows)
			if err := op.ApplyVec(in, out, 1); err != nil {
				t.Fatalf("accepted operator failed ApplyVec: %v", err)
			}
		}
	})
}
