package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"testing"

	"unstencil/internal/operator"
)

// loadBoth writes data to a file and loads it down both paths, checking
// each result against want array for array and apply for apply.
func loadBoth(t *testing.T, data []byte, key string, want *operator.Operator) {
	t.Helper()
	decoded, err := decodeOp(data, key)
	if err != nil {
		t.Fatal(err)
	}
	mop, viaMap, err := mapOp(t, data, key)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && hostLittleEndian && !viaMap {
		t.Error("mmap supported but the mapped load fell back")
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

// Rows stamped by reference from a template row must round-trip — refs,
// pool and apply results all bitwise — on both load paths. Their container
// is byte-identical to the one for the same rows stored directly (stamping
// and interning agree), and holds each pattern block once, so it encodes
// smaller than the weights would stored in place.
func TestTemplatedOperatorRoundTrip(t *testing.T) {
	direct, stamped := congruentOperator(t, 300, 80, 3)
	key := "op:test/p2/g4/periodic"
	data := encodeOp(t, key, stamped)
	if !bytes.Equal(data, encodeOp(t, key, direct)) {
		t.Fatal("stamped and directly stored rows encode differently")
	}
	if inPlace := stamped.NNZ() * 8; len(data) >= inPlace {
		t.Fatalf("container (%d B) not smaller than the weights in place (%d B)", len(data), inPlace)
	}
	loadBoth(t, data, key, stamped)
}

// retype rewrites the section-table entry of type from to type to: the
// payload bytes and CRC still match, so only a structural check can object.
func retype(t *testing.T, data []byte, from, to uint32) []byte {
	t.Helper()
	c, err := parse(data)
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
	if _, err := decodeOp(data, key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode err = %v, want ErrCorrupt", err)
	}
	if _, _, err := mapOp(t, data, key); !errors.Is(err, ErrCorrupt) {
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

// A row permutation that repeats an index is corruption even though every
// entry is in range: its apply would write one output slot twice and leave
// another unwritten, so both load paths must reject it.
func TestDecodeRejectsRepeatedPerm(t *testing.T) {
	b := operator.NewBuilder(3, 2, 1)
	for r := 0; r < 3; r++ {
		b.SetRowBlocks(r, []int32{int32(r % 2)}, []float64{float64(r + 1)})
	}
	expectCorruptBothPaths(t, encodeOp(t, "op:k", b.Finish([]int32{0, 0, 2}, 1)), "op:k")
}

// A container carrying one of the reserved sections of the retired
// formats is structurally contradictory and must be rejected, not silently
// preferred either way — whether it replaces a current section or sits
// next to it.
func TestBSRRejectsScalarColumnSection(t *testing.T) {
	_, stamped := congruentOperator(t, 100, 40, 3)
	data := encodeOp(t, "op:k", stamped)
	expectCorruptBothPaths(t, retype(t, data, SecBlockID, SecColInd), "op:k")
	expectCorruptBothPaths(t, retype(t, data, SecPool, SecVal), "op:k")
	// Next to the blocked index rather than in place of it.
	secs := append(operatorSections("op:k", stamped), section{SecColInd, make([]byte, 8)})
	expectCorruptBothPaths(t, encodeContainer(VersionOperator, KindOperator, secs), "op:k")
}

// The stencil-template sections of the retired formats are reserved: a
// current container carrying some or all of them is corruption, not a
// legacy load.
func TestPartialTemplateSectionsRejected(t *testing.T) {
	_, stamped := congruentOperator(t, 200, 60, 2)
	one := append(operatorSections("op:k", stamped), section{SecRowBase, make([]byte, 4*stamped.Rows)})
	expectCorruptBothPaths(t, encodeContainer(VersionOperator, KindOperator, one), "op:k")
	all := operatorSections("op:k", stamped)
	for _, typ := range []uint32{SecTplPtr, SecTplBlockDelta, SecTplVal, SecRowTpl, SecRowBase} {
		all = append(all, section{typ, make([]byte, 8)})
	}
	expectCorruptBothPaths(t, encodeContainer(VersionOperator, KindOperator, all), "op:k")
}

// What stamped rows share — the value-block refs and the pool they index —
// is checked at decode: a ref past the pool, a pool that is not whole
// blocks, or a ref array out of step with the element ids is rejected.
func TestTemplateValidationAtDecode(t *testing.T) {
	_, stamped := congruentOperator(t, 200, 60, 2)
	for name, mutate := range map[string]func(o *operator.Operator){
		"out-of-range ref": func(o *operator.Operator) {
			o.BlockRef = append([]int32(nil), o.BlockRef...)
			o.BlockRef[0] = int32(len(o.Pool) / o.BasisN)
		},
		"ragged pool":          func(o *operator.Operator) { o.Pool = o.Pool[:len(o.Pool)-1] },
		"refs/blocks mismatch": func(o *operator.Operator) { o.BlockRef = o.BlockRef[:len(o.BlockRef)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			broken := *stamped
			mutate(&broken)
			expectCorruptBothPaths(t, encodeOp(t, "op:k", &broken), "op:k")
		})
	}
}

// legacyOperatorContainer encodes op the way a retired operator format
// laid it out. Every retired format led with the 112-byte metadata record
// of shape plus assembly provenance (workers, scheme, wall time, eight
// geometry counters), here zeroed. Version 4 then wrote today's arrays;
// versions 1–3 stored the weights in place (SecVal) behind row pointers in
// weight units, indexed by element block (SecBlockID) in version 3 and by
// scalar column (SecColInd) in versions 1 and 2; version 2 adds the
// stencil-template sections, here with every row stored directly.
func legacyOperatorContainer(key string, op *operator.Operator, version uint16) []byte {
	meta := make([]byte, 112)
	binary.LittleEndian.PutUint64(meta[0:8], uint64(op.Rows))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(op.Cols))
	binary.LittleEndian.PutUint32(meta[16:20], uint32(op.BasisN))
	if version == 4 {
		secs := operatorSections(key, op)
		secs[0] = section{SecMeta, meta}
		return encodeContainer(version, KindOperator, secs)
	}
	bn := op.BasisN
	rowPtr := make([]int64, len(op.RowPtr))
	for i, p := range op.RowPtr {
		rowPtr[i] = p * int64(bn)
	}
	var vals []float64
	for _, ref := range op.BlockRef {
		vals = append(vals, op.Pool[int(ref)*bn:][:bn]...)
	}
	index := section{SecBlockID, encodeI32s(op.BlockID)}
	if version < 3 {
		cols := make([]int32, 0, len(vals))
		for _, e := range op.BlockID {
			for m := 0; m < bn; m++ {
				cols = append(cols, e*int32(bn)+int32(m))
			}
		}
		index = section{SecColInd, encodeI32s(cols)}
	}
	secs := []section{{SecMeta, meta}, {SecKey, []byte(key)}, {SecRowPtr, encodeI64s(rowPtr)}, index, {SecVal, encodeF64s(vals)}}
	if op.Perm != nil {
		secs = append(secs, section{SecPerm, encodeI32s(op.Perm)})
	}
	if version == 2 {
		rowTpl := make([]int32, op.Rows)
		for i := range rowTpl {
			rowTpl[i] = -1
		}
		secs = append(secs,
			section{SecTplPtr, encodeI64s([]int64{0})},
			section{SecTplDelta, nil},
			section{SecTplVal, nil},
			section{SecRowTpl, encodeI32s(rowTpl)},
			section{SecRowBase, encodeI32s(make([]int32, op.Rows))})
	}
	return encodeContainer(version, KindOperator, secs)
}

// The legacy-file path is pinned, not assumed: a version 1, 2, 3 or 4
// operator container makes Store.LoadOperator fail with ErrVersion and
// remove the file — mapped and portable alike — so the caller's
// re-assembly and write-through repairs the store; and a store opened on a
// directory already holding one sweeps it at startup.
func TestStoreRejectsLegacyOperatorVersions(t *testing.T) {
	_, stamped := congruentOperator(t, 60, 20, 3)
	permuted := testOperator(t, 30, 24, 6, true)
	for version, op := range map[uint16]*operator.Operator{1: stamped, 2: stamped, 3: permuted, 4: permuted} {
		key := "op:legacy"
		data := legacyOperatorContainer(key, op, version)
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
			if n := st.Counters().CorruptRejected.Load(); n != 1 {
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
