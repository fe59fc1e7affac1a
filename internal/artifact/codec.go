package artifact

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// Fixed-width array helpers. Encoding writes the little-endian bit pattern
// of each record; decoding is the single sequential pass the portable
// (non-mmap) load path uses. On little-endian hosts the encoded bytes are
// byte-identical to the in-memory arrays, which is the mmap contract.

func encodeF64s(src []float64) []byte {
	b := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func encodeI64s(src []int64) []byte {
	b := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func encodeI32s(src []int32) []byte {
	b := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// The decoders take whole records: loadOperator checks each section's
// length against its record width first.

func decodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func decodeI64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func decodeI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
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
		for j, v := range t {
			binary.LittleEndian.PutUint32(tris[12*i+4*j:], uint32(v))
		}
	}
	buf := encodeContainer(VersionMesh, KindMesh, []section{
		{SecMeta, meta},
		{SecKey, []byte(key)},
		{SecVerts, verts},
		{SecTris, tris},
	})
	n, err := w.Write(buf)
	return int64(n), err
}

// DecodeMesh decodes the parsed container as a mesh stored under key
// (key "" skips the key check). The decoded mesh passes mesh.Validate, so
// anything this returns is safe for the rest of the pipeline.
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

// ---- Operator ----

// opMetaSize: rows u64 | cols u64 | basisN u32 — the shape, and nothing
// about how or where the operator was assembled, so one operator encodes to
// the same bytes whatever its worker count or wall time.
const opMetaSize = 8 + 8 + 4

// EncodeOperator serialises op as a version-5 operator artifact stored
// under key. The arrays are written verbatim (fixed-width little-endian),
// so the payload can later be memory-mapped and applied with zero copies.
func EncodeOperator(w io.Writer, key string, op *operator.Operator) (int64, error) {
	buf := encodeContainer(VersionOperator, KindOperator, operatorSections(key, op))
	n, err := w.Write(buf)
	return int64(n), err
}

func operatorSections(key string, op *operator.Operator) []section {
	meta := make([]byte, opMetaSize)
	binary.LittleEndian.PutUint64(meta[0:8], uint64(op.Rows))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(op.Cols))
	binary.LittleEndian.PutUint32(meta[16:20], uint32(op.BasisN))

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

// decodeOpMeta fills the shape fields of op from the fixed-width metadata
// record.
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
	op.Rows, op.Cols = int(rows), int(cols)
	op.BasisN = int(binary.LittleEndian.Uint32(meta[16:20]))
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
		f64s:  decodeF64s,
		i64s:  decodeI64s,
		i32s:  decodeI32s,
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

// DecodeOperator decodes the parsed container as a heap-resident operator
// stored under key (key "" skips the key check): the portable load path,
// one sequential decode pass over the fixed-width arrays.
func (c *Container) DecodeOperator(key string) (*operator.Operator, error) {
	return c.loadOperator(key, c.portableLoader(), nil)
}
