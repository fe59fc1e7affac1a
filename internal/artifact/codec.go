package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
)

// Fixed-width array helpers. Encoding writes the little-endian bit pattern
// of each record; decoding is the single sequential pass the portable
// (non-mmap) load path uses. On little-endian hosts the encoded bytes are
// byte-identical to the in-memory arrays, which is the mmap contract.

func putF64s(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func putI64s(dst []byte, src []int64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

func putI32s(dst []byte, src []int32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

func decodeF64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 section length %d not a multiple of 8", ErrCorrupt, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func decodeI64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: int64 section length %d not a multiple of 8", ErrCorrupt, len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func decodeI32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 section length %d not a multiple of 4", ErrCorrupt, len(b))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func encodeF64s(src []float64) []byte {
	b := make([]byte, 8*len(src))
	putF64s(b, src)
	return b
}

// ---- Mesh ----

const meshMetaSize = 16 // numVerts u64 | numTris u64

// EncodeMesh serialises m as a mesh artifact stored under key and writes
// it to w, returning the encoded size.
func EncodeMesh(w io.Writer, key string, m *mesh.Mesh) (int64, error) {
	meta := make([]byte, meshMetaSize)
	binary.LittleEndian.PutUint64(meta[0:8], uint64(m.NumVerts()))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(m.NumTris()))
	verts := make([]byte, 16*m.NumVerts())
	for i, v := range m.Verts {
		binary.LittleEndian.PutUint64(verts[16*i:], math.Float64bits(v.X))
		binary.LittleEndian.PutUint64(verts[16*i+8:], math.Float64bits(v.Y))
	}
	tris := make([]byte, 12*m.NumTris())
	for i, t := range m.Tris {
		putI32s(tris[12*i:12*i+12], t[:])
	}
	buf := encodeContainer(Version, KindMesh, []section{
		{SecMeta, meta},
		{SecKey, []byte(key)},
		{SecVerts, verts},
		{SecTris, tris},
	})
	n, err := w.Write(buf)
	return int64(n), err
}

// DecodeMesh parses and validates a mesh artifact. The decoded mesh passes
// mesh.Validate, so anything this returns is safe for the rest of the
// pipeline.
func DecodeMesh(r io.ReaderAt, size int64, key string) (*mesh.Mesh, error) {
	c, err := Parse(r, size)
	if err != nil {
		return nil, err
	}
	return c.DecodeMesh(key)
}

// DecodeMesh decodes the parsed container as a mesh stored under key
// (key "" skips the key check).
func (c *Container) DecodeMesh(key string) (*mesh.Mesh, error) {
	if c.Kind != KindMesh {
		return nil, fmt.Errorf("%w: kind %s, want mesh", ErrCorrupt, KindName(c.Kind))
	}
	if key != "" {
		if err := c.checkKey(key); err != nil {
			return nil, err
		}
	}
	meta, err := c.ReadSection(SecMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != meshMetaSize {
		return nil, fmt.Errorf("%w: mesh meta is %d bytes, want %d", ErrCorrupt, len(meta), meshMetaSize)
	}
	nv := binary.LittleEndian.Uint64(meta[0:8])
	nt := binary.LittleEndian.Uint64(meta[8:16])
	verts, err := c.ReadSection(SecVerts)
	if err != nil {
		return nil, err
	}
	tris, err := c.ReadSection(SecTris)
	if err != nil {
		return nil, err
	}
	if uint64(len(verts)) != 16*nv || uint64(len(tris)) != 12*nt {
		return nil, fmt.Errorf("%w: mesh sections disagree with meta (%d verts, %d tris)", ErrCorrupt, nv, nt)
	}
	m := &mesh.Mesh{
		Verts: make([]geom.Point, nv),
		Tris:  make([][3]int32, nt),
	}
	for i := range m.Verts {
		m.Verts[i] = geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(verts[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(verts[16*i+8:])))
	}
	for i := range m.Tris {
		for j := 0; j < 3; j++ {
			m.Tris[i][j] = int32(binary.LittleEndian.Uint32(tris[12*i+4*j:]))
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: decoded mesh invalid: %w", err)
	}
	return m, nil
}

// ---- Field ----

const fieldMetaSize = 16 + 64 // p u32 | basisN u32 | numElems u64 | meshHash [64]byte hex

// EncodeField serialises f (a modal coefficient field) as an artifact
// stored under key. The mesh content hash is recorded so a field can never
// be applied to the wrong mesh after a reload.
func EncodeField(w io.Writer, key string, f *dg.Field) (int64, error) {
	meta := make([]byte, fieldMetaSize)
	binary.LittleEndian.PutUint32(meta[0:4], uint32(f.Basis.P))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(f.Basis.N))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(len(f.Coeffs)/f.Basis.N))
	copy(meta[16:80], f.Mesh.ContentHash())
	buf := encodeContainer(Version, KindField, []section{
		{SecMeta, meta},
		{SecKey, []byte(key)},
		{SecCoeffs, encodeF64s(f.Coeffs)},
	})
	n, err := w.Write(buf)
	return int64(n), err
}

// FieldMeta is the decoded field header.
type FieldMeta struct {
	P        int
	BasisN   int
	NumElems int
	MeshHash string
}

// DecodeField parses a field artifact, returning the coefficients and
// metadata; the caller rebinds them to the resident mesh (verified against
// MeshHash).
func DecodeField(r io.ReaderAt, size int64, key string) (FieldMeta, []float64, error) {
	c, err := Parse(r, size)
	if err != nil {
		return FieldMeta{}, nil, err
	}
	return c.DecodeField(key)
}

// DecodeField decodes the parsed container as a field stored under key
// (key "" skips the key check).
func (c *Container) DecodeField(key string) (FieldMeta, []float64, error) {
	if c.Kind != KindField {
		return FieldMeta{}, nil, fmt.Errorf("%w: kind %s, want field", ErrCorrupt, KindName(c.Kind))
	}
	if key != "" {
		if err := c.checkKey(key); err != nil {
			return FieldMeta{}, nil, err
		}
	}
	meta, err := c.ReadSection(SecMeta)
	if err != nil {
		return FieldMeta{}, nil, err
	}
	if len(meta) != fieldMetaSize {
		return FieldMeta{}, nil, fmt.Errorf("%w: field meta is %d bytes, want %d", ErrCorrupt, len(meta), fieldMetaSize)
	}
	fm := FieldMeta{
		P:        int(binary.LittleEndian.Uint32(meta[0:4])),
		BasisN:   int(binary.LittleEndian.Uint32(meta[4:8])),
		NumElems: int(binary.LittleEndian.Uint64(meta[8:16])),
		MeshHash: string(bytes.TrimRight(meta[16:80], "\x00")),
	}
	if fm.P < 0 || fm.P > 64 || fm.BasisN != metrics.NumModes(fm.P) {
		return FieldMeta{}, nil, fmt.Errorf("%w: field meta p=%d basisN=%d inconsistent", ErrCorrupt, fm.P, fm.BasisN)
	}
	raw, err := c.ReadSection(SecCoeffs)
	if err != nil {
		return FieldMeta{}, nil, err
	}
	coeffs, err := decodeF64s(raw)
	if err != nil {
		return FieldMeta{}, nil, err
	}
	if len(coeffs) != fm.NumElems*fm.BasisN {
		return FieldMeta{}, nil, fmt.Errorf("%w: %d coefficients for %d elements × %d modes",
			ErrCorrupt, len(coeffs), fm.NumElems, fm.BasisN)
	}
	return fm, coeffs, nil
}

// ---- Operator ----

// opMetaSize: rows u64 | cols u64 | basisN u32 | workers u32 |
// scheme [16]byte | wallNs u64 | counters 8×u64.
const opMetaSize = 8 + 8 + 4 + 4 + 16 + 8 + 64

// EncodeOperator serialises op as a version-4 operator artifact stored
// under key. The arrays are written verbatim (fixed-width little-endian),
// so the payload can later be memory-mapped and applied with zero copies.
func EncodeOperator(w io.Writer, key string, op *operator.Operator) (int64, error) {
	buf := encodeContainer(VersionOperator, KindOperator, operatorSections(key, op))
	n, err := w.Write(buf)
	return int64(n), err
}

func encodeI64s(src []int64) []byte {
	b := make([]byte, 8*len(src))
	putI64s(b, src)
	return b
}

func encodeI32s(src []int32) []byte {
	b := make([]byte, 4*len(src))
	putI32s(b, src)
	return b
}

func operatorSections(key string, op *operator.Operator) []section {
	meta := make([]byte, opMetaSize)
	binary.LittleEndian.PutUint64(meta[0:8], uint64(op.Rows))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(op.Cols))
	binary.LittleEndian.PutUint32(meta[16:20], uint32(op.BasisN))
	binary.LittleEndian.PutUint32(meta[20:24], uint32(op.Workers))
	copy(meta[24:40], op.AssemblyScheme)
	binary.LittleEndian.PutUint64(meta[40:48], uint64(op.AssemblyWall))
	putI64s(meta[48:112], countersToRecord(op.AssemblyCounters))

	secs := []section{
		{SecMeta, meta},
		{SecKey, []byte(key)},
		{SecRowPtr, encodeI64s(op.RowPtr)},
		{SecBlockID, encodeI32s(op.BlockID)},
		{SecBlockRef, encodeI32s(op.BlockRef)},
		{SecPool, encodeF64s(op.Pool)},
	}
	if op.Perm != nil {
		secs = append(secs, section{SecPerm, encodeI32s(op.Perm)})
	}
	return secs
}

func countersToRecord(c metrics.Counters) []int64 {
	return []int64{
		int64(c.IntersectionTests), int64(c.TruePositives), int64(c.Regions),
		int64(c.QuadEvals), int64(c.Flops), int64(c.BytesRead),
		int64(c.BytesUncoalesced), int64(c.ScatteredLoads),
	}
}

func recordToCounters(r []int64) metrics.Counters {
	return metrics.Counters{
		IntersectionTests: uint64(r[0]), TruePositives: uint64(r[1]), Regions: uint64(r[2]),
		QuadEvals: uint64(r[3]), Flops: uint64(r[4]), BytesRead: uint64(r[5]),
		BytesUncoalesced: uint64(r[6]), ScatteredLoads: uint64(r[7]),
	}
}

// decodeOpMeta fills the shape and provenance fields of op from the
// fixed-width metadata record.
func decodeOpMeta(meta []byte, op *operator.Operator) error {
	if len(meta) != opMetaSize {
		return fmt.Errorf("%w: operator meta is %d bytes, want %d", ErrCorrupt, len(meta), opMetaSize)
	}
	rows := binary.LittleEndian.Uint64(meta[0:8])
	cols := binary.LittleEndian.Uint64(meta[8:16])
	// Reject shapes that cannot index int32 columns or that would imply
	// absurd allocations before any array section is read.
	if rows > 1<<40 || cols > 1<<31 {
		return fmt.Errorf("%w: implausible operator shape %d×%d", ErrCorrupt, rows, cols)
	}
	cnt, _ := decodeI64s(meta[48:112])
	op.Rows, op.Cols = int(rows), int(cols)
	op.BasisN = int(binary.LittleEndian.Uint32(meta[16:20]))
	op.Workers = int(binary.LittleEndian.Uint32(meta[20:24]))
	op.AssemblyScheme = string(bytes.TrimRight(meta[24:40], "\x00"))
	op.AssemblyWall = time.Duration(binary.LittleEndian.Uint64(meta[40:48]))
	op.AssemblyCounters = recordToCounters(cnt)
	return nil
}

// arrayLoader is how one load path turns section payloads into typed
// slices — the only thing the portable and the mapped path differ in.
// bytes returns one section's payload: CRC-verified and copied out of the
// reader on the portable path, aliasing the mapping (CRCs settled up
// front) on the mapped one. The three converters then decode-copy, or cast
// in place; loadOperator only hands them whole records.
type arrayLoader struct {
	bytes func(typ uint32) ([]byte, error)
	f64s  func([]byte) []float64
	i64s  func([]byte) []int64
	i32s  func([]byte) []int32
}

// portableLoader reads and decodes each section through c's reader.
func (c *Container) portableLoader() arrayLoader {
	return arrayLoader{
		bytes: c.ReadSection,
		f64s:  func(b []byte) []float64 { v, _ := decodeF64s(b); return v },
		i64s:  func(b []byte) []int64 { v, _ := decodeI64s(b); return v },
		i32s:  func(b []byte) []int32 { v, _ := decodeI32s(b); return v },
	}
}

// retiredSections are the reserved section ids of the retired operator
// formats; a current container carrying any of them is contradictory.
var retiredSections = [...]uint32{
	SecColInd, SecVal, SecTplPtr, SecTplDelta, SecTplVal, SecRowTpl, SecRowBase, SecTplBlockDelta,
}

// loadOperator is the one operator section walk: kind and key checks, the
// metadata record, the row arrays and value pool, the optional
// permutation, then operator.Validate — nothing is returned that an apply
// could index out of bounds. backing is stored as the operator's Backing.
func (c *Container) loadOperator(key string, ld arrayLoader, backing any) (*operator.Operator, error) {
	if c.Kind != KindOperator {
		return nil, fmt.Errorf("%w: kind %s, want operator", ErrCorrupt, KindName(c.Kind))
	}
	if key != "" {
		if err := c.checkKey(key); err != nil {
			return nil, err
		}
	}
	meta, err := c.ReadSection(SecMeta)
	if err != nil {
		return nil, err
	}
	op := &operator.Operator{Backing: backing}
	if err := decodeOpMeta(meta, op); err != nil {
		return nil, err
	}
	for _, typ := range retiredSections {
		if _, ok := c.Section(typ); ok {
			return nil, fmt.Errorf("%w: v%d operator carries retired section %d", ErrCorrupt, c.Version, typ)
		}
	}
	// load fetches one array section, enforcing the record-width
	// divisibility the converters assume; the first failure sticks and
	// later sections load as empty.
	var firstErr error
	load := func(typ uint32, width int) []byte {
		b, err := ld.bytes(typ)
		if err == nil && len(b)%width != 0 {
			err = fmt.Errorf("%w: section %d length %d not a multiple of %d", ErrCorrupt, typ, len(b), width)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return nil
		}
		return b
	}
	op.RowPtr = ld.i64s(load(SecRowPtr, 8))
	op.BlockID = ld.i32s(load(SecBlockID, 4))
	op.BlockRef = ld.i32s(load(SecBlockRef, 4))
	op.Pool = ld.f64s(load(SecPool, 8))
	if _, ok := c.Section(SecPerm); ok {
		op.Perm = ld.i32s(load(SecPerm, 4))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := op.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return op, nil
}

// DecodeOperator parses an operator artifact into a heap-resident
// operator: the portable load path, one sequential decode pass over the
// fixed-width arrays. For the zero-copy path see MapOperator.
func DecodeOperator(r io.ReaderAt, size int64, key string) (*operator.Operator, error) {
	c, err := Parse(r, size)
	if err != nil {
		return nil, err
	}
	return c.DecodeOperator(key)
}

// DecodeOperator decodes the parsed container as an operator stored under
// key (key "" skips the key check).
func (c *Container) DecodeOperator(key string) (*operator.Operator, error) {
	return c.loadOperator(key, c.portableLoader(), nil)
}
