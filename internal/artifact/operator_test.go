package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"unstencil/internal/operator"
)

// loadBoth writes data to a file and loads it down both paths, checking
// each result against want array for array and apply for apply.
func loadBoth(t *testing.T, data []byte, key string, want *operator.Operator) {
	t.Helper()
	decoded, err := DecodeOperator(bytes.NewReader(data), int64(len(data)), key)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "op.art")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mop, viaMap, err := MapOperator(path, key)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && hostLittleEndian && !viaMap {
		t.Error("mmap supported but MapOperator fell back")
	}
	defer func() {
		if m, ok := mop.Backing.(*Mapping); ok {
			_ = m.Close()
		}
	}()

	rng := rand.New(rand.NewSource(11))
	coeffs := make([]float64, want.Cols)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	ref := make([]float64, want.Rows)
	if err := want.ApplyVec(coeffs, ref, 1); err != nil {
		t.Fatal(err)
	}
	for leg, o := range map[string]*operator.Operator{"decoded": decoded, "mapped": mop} {
		sameOperator(t, o, want)
		out := make([]float64, want.Rows)
		if err := o.ApplyVec(coeffs, out, 2); err != nil {
			t.Fatal(err)
		}
		sameArray(t, leg+" apply", f64bits(out), f64bits(ref))
	}
}

// A directly stored operator must round-trip — block index and apply
// results all bitwise — on both the portable and the mapped load path.
func TestBSROperatorRoundTrip(t *testing.T) {
	direct, _ := congruentOperator(t, 300, 80, 3)
	key := "op:test/p2/g4/periodic"
	data := encodeOp(t, key, direct)
	loadBoth(t, data, key, direct)
}

// A templated operator must round-trip — templates, side tables, and apply
// results all bitwise — on both load paths, apply exactly like the same
// rows stored directly, and encode smaller than them.
func TestTemplatedOperatorRoundTrip(t *testing.T) {
	direct, topl := congruentOperator(t, 300, 80, 3)
	key := "op:test/p2/g4/periodic"
	dataDirect := encodeOp(t, key, direct)
	dataTpl := encodeOp(t, key, topl)
	if len(dataTpl) >= len(dataDirect) {
		t.Fatalf("templated container (%d B) not smaller than direct (%d B)", len(dataTpl), len(dataDirect))
	}
	loadBoth(t, dataTpl, key, topl)

	coeffs := make([]float64, direct.Cols)
	for i := range coeffs {
		coeffs[i] = float64(i%17) - 8.5
	}
	want, got := make([]float64, direct.Rows), make([]float64, direct.Rows)
	if err := direct.ApplyVec(coeffs, want, 1); err != nil {
		t.Fatal(err)
	}
	if err := topl.ApplyVec(coeffs, got, 1); err != nil {
		t.Fatal(err)
	}
	sameArray(t, "templated vs direct apply", f64bits(got), f64bits(want))
}

// retype rewrites the section-table entry of type from to type to: the
// payload bytes and CRC still match, so only a structural check can object.
func retype(t *testing.T, data []byte, from, to uint32) []byte {
	t.Helper()
	c, err := Parse(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Sections {
		if s.Type == from {
			bad := bytes.Clone(data)
			binary.LittleEndian.PutUint32(bad[headerSize+i*entrySize:], to)
			return bad
		}
	}
	t.Fatalf("no section of type %d", from)
	return nil
}

func expectCorruptBothPaths(t *testing.T, data []byte, key string) {
	t.Helper()
	if _, err := DecodeOperator(bytes.NewReader(data), int64(len(data)), key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode err = %v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "op.art")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MapOperator(path, key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("map err = %v, want ErrCorrupt", err)
	}
}

// An out-of-range element id in the blocked index is corruption: the
// decoders must reject it (Operator.Validate), never hand back an operator
// whose apply would index outside the coefficient vector.
func TestBSRDecodeRejectsBadBlockID(t *testing.T) {
	direct, _ := congruentOperator(t, 100, 40, 3)
	broken := *direct
	broken.BlockID = append([]int32(nil), direct.BlockID...)
	broken.BlockID[0] = int32(direct.Cols) // element id far past Cols/basisN
	expectCorruptBothPaths(t, encodeOp(t, "op:k", &broken), "op:k")
}

// A container carrying one of the reserved scalar index sections is
// structurally contradictory and must be rejected, not silently preferred
// either way — whether it replaces the blocked section or sits next to it.
func TestBSRRejectsScalarColumnSection(t *testing.T) {
	_, topl := congruentOperator(t, 100, 40, 3)
	data := encodeOp(t, "op:k", topl)
	expectCorruptBothPaths(t, retype(t, data, SecBlockID, SecColInd), "op:k")
	expectCorruptBothPaths(t, retype(t, data, SecTplBlockDelta, SecTplDelta), "op:k")
	// Next to the blocked index rather than in place of it.
	secs := append(operatorSections("op:k", topl), section{SecColInd, make([]byte, 8)})
	expectCorruptBothPaths(t, encodeContainer(VersionOperator, KindOperator, secs), "op:k")
}

// Partial template sections are corruption, not a degraded load.
func TestPartialTemplateSectionsRejected(t *testing.T) {
	_, topl := congruentOperator(t, 200, 60, 2)
	// Retype the RowBase section to an unknown id: now only 4 of 5
	// template sections are present.
	expectCorruptBothPaths(t, retype(t, encodeOp(t, "op:k", topl), SecRowBase, 200), "op:k")
}

// A template row table pointing at a template that does not exist must be
// rejected by the decode-time validation.
func TestTemplateValidationAtDecode(t *testing.T) {
	_, topl := congruentOperator(t, 200, 60, 2)
	broken := *topl
	ts := *topl.Tpl
	ts.RowTpl = append([]int32(nil), topl.Tpl.RowTpl...)
	ts.RowTpl[0] = int32(ts.NumTemplates()) // dangling id
	broken.Tpl = &ts
	expectCorruptBothPaths(t, encodeOp(t, "op:k", &broken), "op:k")
}

// legacyOperatorContainer encodes op the way the retired operator formats
// did: one scalar column index per entry (SecColInd) in place of the
// blocked index — version 1 — plus, for templated operators, the template
// sections with scalar column deltas (SecTplDelta) — version 2.
func legacyOperatorContainer(key string, op *operator.Operator) []byte {
	scalar := func(ids []int32) []byte {
		cols := make([]int32, 0, len(ids)*op.BasisN)
		for _, e := range ids {
			for m := 0; m < op.BasisN; m++ {
				cols = append(cols, e*int32(op.BasisN)+int32(m))
			}
		}
		return encodeI32s(cols)
	}
	version := uint16(1)
	var secs []section
	for _, s := range operatorSections(key, op) {
		switch s.typ {
		case SecBlockID:
			s = section{SecColInd, scalar(op.BlockID)}
		case SecTplBlockDelta:
			s = section{SecTplDelta, scalar(op.Tpl.BlockDelta)}
			version = 2
		}
		secs = append(secs, s)
	}
	return encodeContainer(version, KindOperator, secs)
}

// The legacy-file path is pinned, not assumed: a version 1 and a version 2
// operator container make Store.LoadOperator fail with ErrVersion and
// remove the file — mapped and portable alike — so the caller's
// re-assembly and write-through repairs the store; and a store opened on a
// directory already holding one sweeps it at startup.
func TestStoreRejectsLegacyOperatorVersions(t *testing.T) {
	direct, topl := congruentOperator(t, 60, 20, 3)
	for version, op := range map[uint16]*operator.Operator{1: direct, 2: topl} {
		key := "op:legacy"
		data := legacyOperatorContainer(key, op)
		if v := binary.LittleEndian.Uint16(data[4:6]); v != version {
			t.Fatalf("legacy helper wrote v%d, want v%d", v, version)
		}
		for _, mapped := range []bool{false, true} {
			st, err := NewStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.Path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.LoadOperator(key, mapped); !errors.Is(err, ErrVersion) {
				t.Fatalf("v%d mapped=%v: err = %v, want ErrVersion", version, mapped, err)
			}
			if st.Has(key) {
				t.Fatalf("v%d mapped=%v: legacy file left on disk", version, mapped)
			}
			if n := st.Counters().Snapshot().CorruptRejected; n != 1 {
				t.Errorf("v%d mapped=%v: corrupt_rejected = %d, want 1", version, mapped, n)
			}
			// The rejection cleared the way for the repaired file.
			if err := st.SaveOperator(key, op); err != nil {
				t.Fatal(err)
			}
			got, _, err := st.LoadOperator(key, mapped)
			if err != nil {
				t.Fatal(err)
			}
			sameOperator(t, got, op)

			if err := os.WriteFile(st.Path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := NewStore(st.Dir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Has(key) {
				t.Fatalf("v%d: startup GC left the legacy file in place", version)
			}
		}
	}
}
