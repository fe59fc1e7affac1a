package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// testOperator builds a deterministic pseudo-random operator with every row
// stored directly, through the same Builder the assembly path uses, so
// every structural invariant the real pipeline guarantees holds here too.
// cols must be a multiple of basisN.
func testOperator(t testing.TB, rows, cols, basisN int, withPerm bool) *operator.Operator {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := operator.NewBuilder(rows, cols, basisN)
	for r := 0; r < rows; r++ {
		var elems []int32
		for e := 0; e < cols/basisN; e++ {
			if rng.Intn(2) == 0 {
				elems = append(elems, int32(e))
			}
		}
		vals := make([]float64, len(elems)*basisN)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		b.SetRowBlocks(r, elems, vals)
	}
	var perm []int32
	if withPerm {
		for _, p := range rng.Perm(rows) {
			perm = append(perm, int32(p))
		}
	}
	return b.Finish(perm, 3)
}

// congruentOperator builds the same logical operator twice — rows that are
// exact translates of two stencil patterns — once with every row's weights
// stored directly and once with each pattern row stamped by reference from
// the first row that used the pattern, the shape congruence-first assembly
// emits on a structured mesh. Interning makes the two array-identical.
func congruentOperator(t testing.TB, rows, elems, basisN int) (direct, stamped *operator.Operator) {
	t.Helper()
	build := func(stamp bool) *operator.Operator {
		rng := rand.New(rand.NewSource(5))
		deltas := [][]int32{{0, 1, 2, 4}, {0, 2, 3, 4, 5, 6}}
		patterns := make([][]float64, len(deltas))
		first := []int{-1, -1}
		b := operator.NewBuilder(rows, elems*basisN, basisN)
		for p, d := range deltas {
			patterns[p] = make([]float64, len(d)*basisN)
			for i := range patterns[p] {
				patterns[p][i] = rng.NormFloat64()
			}
		}
		for r := 0; r < rows; r++ {
			p, e0 := rng.Intn(len(deltas)), int32(rng.Intn(elems-7))
			ids := make([]int32, len(deltas[p]))
			slots := make([]int32, len(deltas[p]))
			for i, d := range deltas[p] {
				ids[i], slots[i] = e0+d, int32(i)
			}
			if stamp && first[p] >= 0 {
				b.SetRowStamp(r, ids, first[p], slots)
				continue
			}
			first[p] = r
			b.SetRowBlocks(r, ids, patterns[p])
		}
		return b.Finish(nil, 2)
	}
	direct, stamped = build(false), build(true)
	if want := 4 + 6; direct.Stats().UniqueBlocks != want || stamped.Stats().UniqueBlocks != want {
		t.Fatalf("congruent fixtures pool %d / %d blocks, want %d",
			direct.Stats().UniqueBlocks, stamped.Stats().UniqueBlocks, want)
	}
	return direct, stamped
}

// retiredFieldContainer lays out a file the way the retired field kind
// (2) did: an 80-byte shape-and-mesh-hash record, the key, and the modal
// coefficients (section 32).
func retiredFieldContainer(key string) []byte {
	return encodeContainer(VersionMesh, 2, []section{
		{SecMeta, make([]byte, 80)},
		{SecKey, []byte(key)},
		{32, encodeF64s(make([]float64, 6))},
	})
}

// parse parses an in-memory container.
func parse(data []byte) (*Container, error) {
	return Parse(bytes.NewReader(data), int64(len(data)))
}

// decodeOp decodes data as an operator stored under key: the portable
// load path.
func decodeOp(data []byte, key string) (*operator.Operator, error) {
	c, err := parse(data)
	if err != nil {
		return nil, err
	}
	return c.DecodeOperator(key)
}

// mapOp stores data under key in a fresh store and loads it mapped (the
// portable decode where mmap is unavailable).
func mapOp(t *testing.T, data []byte, key string) (*operator.Operator, bool, error) {
	t.Helper()
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return st.LoadOperator(key, true)
}

func encodeOp(t testing.TB, key string, op *operator.Operator) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := EncodeOperator(&buf, key, op)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("EncodeOperator reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func sameArray[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// f64bits exposes the bit patterns, so sameArray compares floats bitwise.
func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// sameOperator demands the shape and every stored array be identical, bit
// for bit.
func sameOperator(t *testing.T, got, want *operator.Operator) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.BasisN != want.BasisN {
		t.Fatalf("shape %d×%d basis %d, want %d×%d basis %d",
			got.Rows, got.Cols, got.BasisN, want.Rows, want.Cols, want.BasisN)
	}
	sameArray(t, "rowptr", got.RowPtr, want.RowPtr)
	sameArray(t, "blockid", got.BlockID, want.BlockID)
	sameArray(t, "blockref", got.BlockRef, want.BlockRef)
	sameArray(t, "pool", f64bits(got.Pool), f64bits(want.Pool))
	sameArray(t, "perm", got.Perm, want.Perm)
}

// Encode→Decode must reproduce the mesh exactly, content hash included.
func TestMeshRoundTrip(t *testing.T) {
	um, err := mesh.SizedLowVariance(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*mesh.Mesh{
		"structured": mesh.Structured(4), "unstructured": um,
	} {
		var buf bytes.Buffer
		key := "mesh:" + m.ContentHash()
		if _, err := EncodeMesh(&buf, key, m); err != nil {
			t.Fatal(err)
		}
		c, err := parse(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := c.DecodeMesh(key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.ContentHash() != m.ContentHash() {
			t.Errorf("%s: round trip changed the content hash", name)
		}
	}
}

// Operators must round-trip exactly — every stored array and the
// permutation.
func TestOperatorRoundTrip(t *testing.T) {
	for _, withPerm := range []bool{false, true} {
		op := testOperator(t, 50, 30, 6, withPerm)
		key := "op:test/p2/g4/periodic"
		data := encodeOp(t, key, op)
		if v := binary.LittleEndian.Uint16(data[4:6]); v != VersionOperator {
			t.Fatalf("operator container has version %d, want %d", v, VersionOperator)
		}
		got, err := decodeOp(data, key)
		if err != nil {
			t.Fatal(err)
		}
		sameOperator(t, got, op)
	}
}

// A memory-mapped operator must produce bit-identical ApplyVec output to
// the heap-resident original: the mapped arrays are the same bytes, so the
// Neumaier-compensated accumulation must agree to the last ulp.
func TestMapOperatorBitIdentical(t *testing.T) {
	op := testOperator(t, 80, 36, 6, true)
	key := "op:test/p2/g4/one-sided"
	mop, viaMap, err := mapOp(t, encodeOp(t, key, op), key)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && hostLittleEndian && !viaMap {
		t.Error("mmap is supported here but the mapped load fell back")
	}
	if viaMap && mop.Backing == nil {
		t.Error("mapped operator has no backing pin")
	}

	rng := rand.New(rand.NewSource(7))
	coeffs := make([]float64, op.Cols)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	want := make([]float64, op.Rows)
	got := make([]float64, op.Rows)
	for _, workers := range []int{1, 3} {
		if err := op.ApplyVec(coeffs, want, workers); err != nil {
			t.Fatal(err)
		}
		if err := mop.ApplyVec(coeffs, got, workers); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d row %d: mapped %x vs in-memory %x",
					workers, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	if m, ok := mop.Backing.(*Mapping); ok {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A structurally valid artifact requested under the wrong key is refused:
// renaming or cross-copying store files must never serve wrong data.
func TestKeyMismatch(t *testing.T) {
	op := testOperator(t, 10, 9, 3, false)
	data := encodeOp(t, "op:right", op)
	_, err := decodeOp(data, "op:wrong")
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
	if _, err := decodeOp(data, ""); err != nil {
		t.Fatalf("key-agnostic decode failed: %v", err)
	}
}

// Version and magic gates: future formats and foreign files are rejected
// with the typed errors, not misparsed.
func TestVersionAndMagicGates(t *testing.T) {
	op := testOperator(t, 10, 9, 3, false)
	data := encodeOp(t, "op:k", op)

	bad := bytes.Clone(data)
	bad[4] = 99 // version low byte
	if _, err := Parse(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
	bad = bytes.Clone(data)
	bad[0] = 'X'
	if _, err := Parse(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}
	// Each kind has one version: the retired operator versions are as
	// unknown as a future one, and so is an operator-versioned mesh.
	for _, v := range []byte{1, 2, 3, 4} {
		bad = bytes.Clone(data)
		bad[4] = v
		if _, err := Parse(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrVersion) {
			t.Fatalf("operator v%d: err = %v, want ErrVersion", v, err)
		}
	}
	var buf bytes.Buffer
	if _, err := EncodeMesh(&buf, "mesh:k", mesh.Structured(2)); err != nil {
		t.Fatal(err)
	}
	bad = buf.Bytes()
	bad[4] = VersionOperator
	if _, err := Parse(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrVersion) {
		t.Fatalf("mesh v%d: err = %v, want ErrVersion", VersionOperator, err)
	}
}

// Truncation at every prefix length (sampled) and single-bit flips across
// the payload must produce errors, never panics or silent acceptance.
func TestOperatorDecodeRejectsDamage(t *testing.T) {
	op := testOperator(t, 20, 12, 3, true)
	key := "op:damage"
	data := encodeOp(t, key, op)

	for size := 0; size < len(data); size += 7 {
		trunc := data[:size]
		if _, err := decodeOp(trunc, key); err == nil {
			t.Fatalf("truncation to %d bytes accepted", size)
		}
	}
	// Bit flips in section payloads are caught by CRCs, flips in the
	// header/table structurally. The only bytes a flip may legitimately
	// leave valid are outside any checked region — the reserved header
	// word and inter-section zero padding — and there the decoded operator
	// must be provably unchanged. Sample every 11th byte to keep the test
	// fast.
	for pos := 0; pos < len(data); pos += 11 {
		flipped := bytes.Clone(data)
		flipped[pos] ^= 0x10
		got, err := decodeOp(flipped, key)
		if err == nil {
			sameOperator(t, got, op)
		}
	}
}
