// Package artifact is the persistent binary container for the two
// artifacts unstencil reads back from disk: meshes and assembled
// post-processing operators.
//
// The service's whole design is precompute-once/apply-many — assembled
// operators turn every repeated field into a single sparse apply — but an
// in-process LRU alone means every restart of unstencild re-pays 0.2–1.2 s
// of assembly per operator. This package trades that recomputation for
// stored operator data (the same trade the matrix-free dG literature
// frames for operator setup): a compact, versioned, content-addressed
// on-disk format plus a tiered store, so cold starts warm from disk at I/O
// speed instead of re-running geometry. Fields are not persisted: the
// weights depend only on the mesh, grid and kernel, while the field changes
// every time step, so the service projects fields and never reads one back.
//
// # Container layout
//
// Every artifact is one file, little-endian throughout:
//
//	header (16 B): magic "UNSA" | version u16 | kind u16 |
//	               nsections u32 | reserved u32 (zero)
//	section table: nsections × 24 B entries:
//	               type u32 | crc32 u32 (IEEE, payload) |
//	               offset u64 | length u64
//	payload:       sections in table order, each zero-padded to an
//	               8-byte-aligned offset
//
// Payload records are fixed-width arrays (float64, int64, int32 — never a
// varint or a length-prefixed element), which is what makes operators
// memory-mappable: the row pointers, element ids, value-block ids and the
// value pool in the file are byte-for-byte the in-memory arrays of
// operator.Operator, so a mapped file can be row-sliced by an apply with
// no deserialization at all. On hosts without mmap (or big-endian ones) a
// portable fallback reads the arrays through one sequential decode pass
// instead.
//
// Integrity is layered: per-section CRC32 catches bit rot and truncation,
// the KEY section ties a file to the logical store key it was written
// under (a renamed or cross-copied file is rejected, never silently
// served), and mesh artifacts additionally verify the decoded mesh's
// content hash.
//
// # Kinds and versions
//
// There are two kinds, mesh (1) and operator (3), each with exactly one
// format version, written and read: meshes are version 1, operators
// version 5 (each block an element id and a value-block id into one pool
// of distinct weight blocks, see operator.Operator, behind a metadata
// record that holds the shape only). Parse rejects every other kind and
// version with ErrVersion — fixed-width layouts cannot be sniffed safely —
// while unknown section types within a known version are ignored so minor
// additions stay forward-compatible. Kind 2 held modal coefficient fields
// that nothing read back; the store's startup GC deletes such a file like
// any unparseable one. Operator files of the retired versions are
// rejected like any unknown version: 1 and 2 (scalar column indices), 3
// (weights stored in place per block, plus five stencil-template
// sections) and 4 (today's arrays behind a metadata record that also
// carried assembly provenance). The store deletes such a file and the
// caller re-assembles and writes the operator back, which is sound
// because operator artifacts are a derived, content-keyed cache. The
// section ids only those formats used stay reserved, and a version-5
// container carrying one is corrupt.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies an unstencil artifact file.
const Magic = "UNSA"

// VersionMesh is the format version of mesh containers.
const VersionMesh = 1

// VersionOperator is the format version of operator containers: per block
// an element id (SecBlockID) and a value-block id (SecBlockRef) into one
// pool of distinct weight blocks (SecPool).
const VersionOperator = 5

// Artifact kinds (header field). Kind 2, the retired field kind, is
// rejected like any unknown kind.
const (
	KindMesh     uint16 = 1
	KindOperator uint16 = 3
)

// kindVersions maps each kind this reader accepts to the one format
// version it accepts (and writes) for it.
var kindVersions = map[uint16]uint16{KindMesh: VersionMesh, KindOperator: VersionOperator}

// KindName returns the human-readable name of a kind.
func KindName(kind uint16) string {
	switch kind {
	case KindMesh:
		return "mesh"
	case KindOperator:
		return "operator"
	default:
		return fmt.Sprintf("kind(%d)", kind)
	}
}

// Section types. Meta and Key are common to both kinds; the rest are
// per-kind payload arrays.
const (
	// SecMeta is the fixed-width metadata record: the shape.
	SecMeta uint32 = 1
	// SecKey is the logical store key the artifact was written under,
	// verified on load so a misplaced file is never served for the wrong
	// key.
	SecKey uint32 = 2

	// Mesh payload.
	SecVerts uint32 = 16 // float64 ×2 per vertex
	SecTris  uint32 = 17 // int32 ×3 per triangle

	// Operator payload (the mmap-able row arrays).
	SecRowPtr   uint32 = 48 // int64, rows+1 (block offsets)
	SecPerm     uint32 = 51 // int32, rows (optional: absent = identity)
	SecBlockID  uint32 = 57 // int32, one element id per block
	SecBlockRef uint32 = 59 // int32, one value-block id per block
	SecPool     uint32 = 60 // float64, basisN per distinct weight block

	// Reserved: sections of the retired operator formats — the scalar
	// index sections of versions 1–2 (one int32 per entry), the in-place
	// weights of versions 1–3 and the stencil-template side tables of
	// versions 2–3. Never written; a container carrying one is rejected.
	SecColInd        uint32 = 49
	SecVal           uint32 = 50
	SecTplPtr        uint32 = 52
	SecTplDelta      uint32 = 53
	SecTplVal        uint32 = 54
	SecRowTpl        uint32 = 55
	SecRowBase       uint32 = 56
	SecTplBlockDelta uint32 = 58
)

const (
	headerSize = 16
	entrySize  = 24
	// maxSections bounds the table so a corrupt count cannot drive a huge
	// allocation before any CRC is checked.
	maxSections = 64
)

// Decode errors callers may branch on.
var (
	// ErrBadMagic marks a file that is not an unstencil artifact at all.
	ErrBadMagic = errors.New("artifact: bad magic (not an artifact file)")
	// ErrVersion marks a container kind or version this reader does not
	// support.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrCorrupt marks structural damage: truncation, overlapping or
	// out-of-bounds sections, CRC mismatch.
	ErrCorrupt = errors.New("artifact: corrupt container")
	// ErrKeyMismatch marks a structurally valid artifact stored under a
	// different logical key than the one requested.
	ErrKeyMismatch = errors.New("artifact: key mismatch")
)

// SectionInfo is one parsed section-table entry.
type SectionInfo struct {
	Type   uint32
	CRC    uint32
	Offset uint64
	Length uint64
}

// Container is a parsed artifact file: the header and section table,
// validated for bounds and alignment, over a random-access reader. Payload
// bytes are read (and CRC-verified) on demand, so a caller that only needs
// the header — inspect, startup GC — never touches the arrays.
type Container struct {
	Version  uint16
	Kind     uint16
	Sections []SectionInfo

	r    io.ReaderAt
	size int64
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Parse validates the header and section table of an artifact of the given
// total size. It reads only the header region; call ReadSection or
// VerifyAll for payload integrity.
func Parse(r io.ReaderAt, size int64) (*Container, error) {
	var hdr [headerSize]byte
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the header", ErrCorrupt, size)
	}
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("artifact: read header: %w", err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint16(hdr[4:6])
	kind := binary.LittleEndian.Uint16(hdr[6:8])
	want, ok := kindVersions[kind]
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrVersion, kind)
	}
	if v != want {
		return nil, fmt.Errorf("%w: got %s v%d, this reader supports v%d",
			ErrVersion, KindName(kind), v, want)
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n == 0 || n > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, n)
	}
	table := make([]byte, int(n)*entrySize)
	if _, err := r.ReadAt(table, headerSize); err != nil {
		return nil, fmt.Errorf("%w: section table truncated", ErrCorrupt)
	}
	c := &Container{Version: v, Kind: kind, Sections: make([]SectionInfo, n), r: r, size: size}
	payloadStart := uint64(headerSize) + uint64(n)*entrySize
	seen := map[uint32]bool{}
	for i := range c.Sections {
		e := table[i*entrySize:]
		s := SectionInfo{
			Type:   binary.LittleEndian.Uint32(e[0:4]),
			CRC:    binary.LittleEndian.Uint32(e[4:8]),
			Offset: binary.LittleEndian.Uint64(e[8:16]),
			Length: binary.LittleEndian.Uint64(e[16:24]),
		}
		if seen[s.Type] {
			return nil, fmt.Errorf("%w: duplicate section type %d", ErrCorrupt, s.Type)
		}
		seen[s.Type] = true
		if s.Offset%8 != 0 {
			return nil, fmt.Errorf("%w: section %d offset %d not 8-byte aligned", ErrCorrupt, s.Type, s.Offset)
		}
		if s.Offset < payloadStart || s.Offset > uint64(size) || s.Length > uint64(size)-s.Offset {
			return nil, fmt.Errorf("%w: section %d [%d, +%d) outside file of %d bytes",
				ErrCorrupt, s.Type, s.Offset, s.Length, size)
		}
		c.Sections[i] = s
	}
	return c, nil
}

// Section returns the table entry for the given type.
func (c *Container) Section(typ uint32) (SectionInfo, bool) {
	for _, s := range c.Sections {
		if s.Type == typ {
			return s, true
		}
	}
	return SectionInfo{}, false
}

// ReadSection reads one section's payload and verifies its CRC32.
func (c *Container) ReadSection(typ uint32) ([]byte, error) {
	s, ok := c.Section(typ)
	if !ok {
		return nil, fmt.Errorf("%w: missing section type %d", ErrCorrupt, typ)
	}
	buf := make([]byte, s.Length)
	if _, err := c.r.ReadAt(buf, int64(s.Offset)); err != nil {
		return nil, fmt.Errorf("%w: section %d truncated", ErrCorrupt, typ)
	}
	if err := verifySection(s, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// verifySection checks a section's payload bytes against the CRC32 its
// table entry stores: the one integrity comparison, over bytes read from
// the reader or over the memory mapping in place.
func verifySection(s SectionInfo, payload []byte) error {
	if got := crc32.ChecksumIEEE(payload); got != s.CRC {
		return fmt.Errorf("%w: section %d CRC mismatch (stored %08x, computed %08x)",
			ErrCorrupt, s.Type, s.CRC, got)
	}
	return nil
}

// VerifyAll checks every section's CRC, reading each payload through the
// container's reader. It is the integrity pass behind
// `unstencil-artifact verify`; a mapped store load runs verifySection over
// the mapping instead.
func (c *Container) VerifyAll() error {
	for _, s := range c.Sections {
		if _, err := c.ReadSection(s.Type); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the logical store key recorded in the artifact, or "" if the
// file predates key stamping (never the case for files this package
// writes).
func (c *Container) Key() (string, error) {
	if _, ok := c.Section(SecKey); !ok {
		return "", nil
	}
	b, err := c.ReadSection(SecKey)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// checkKey verifies the artifact was stored under key.
func (c *Container) checkKey(key string) error {
	got, err := c.Key()
	if err != nil {
		return err
	}
	if got != key {
		return fmt.Errorf("%w: stored under %q, requested %q", ErrKeyMismatch, got, key)
	}
	return nil
}

// section is one pending payload block during encoding.
type section struct {
	typ  uint32
	data []byte
}

// encodeContainer lays out a complete artifact file: header, section
// table, then payloads at 8-byte-aligned offsets with zero padding. The
// whole file is assembled in memory — artifacts are at most tens of MB and
// the caller already holds the arrays being written.
func encodeContainer(version, kind uint16, secs []section) []byte {
	payloadStart := align8(uint64(headerSize) + uint64(len(secs))*entrySize)
	total := payloadStart
	offsets := make([]uint64, len(secs))
	for i, s := range secs {
		offsets[i] = total
		total = align8(total + uint64(len(s.data)))
	}
	out := make([]byte, total)
	copy(out[0:4], Magic)
	binary.LittleEndian.PutUint16(out[4:6], version)
	binary.LittleEndian.PutUint16(out[6:8], kind)
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(secs)))
	for i, s := range secs {
		e := out[headerSize+i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.typ)
		binary.LittleEndian.PutUint32(e[4:8], crc32.ChecksumIEEE(s.data))
		binary.LittleEndian.PutUint64(e[8:16], offsets[i])
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.data)))
		copy(out[offsets[i]:], s.data)
	}
	return out
}
