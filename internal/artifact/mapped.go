package artifact

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"unstencil/internal/operator"
)

// hostLittleEndian reports whether this machine stores multi-byte integers
// little-endian, i.e. whether the on-disk fixed-width arrays are
// byte-identical to in-memory slices and may be aliased directly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Mapping owns one read-only memory-mapped artifact file. Operators loaded
// mapped through Store.LoadOperator alias its pages via Operator.Backing;
// the mapping is released either by an explicit Close (offline tools) or
// by the finalizer once the operator itself is unreachable (the server's
// LRU eviction path, which has no unload hook).
type Mapping struct {
	data   []byte
	closed atomic.Bool
}

// Close unmaps the file. The slices of any operator backed by this
// mapping are invalid afterwards; long-lived holders (the server cache)
// never call Close and rely on the finalizer instead.
func (m *Mapping) Close() error {
	if m == nil || m.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	return munmapFile(m.data)
}

// Aliasing casts: valid only on little-endian hosts over 8-byte-aligned
// payload bytes, both of which readOperator checks before getting here.

func castF64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func castI64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func castI32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// mappedLoader aliases each section's payload out of the mapped file data.
func (c *Container) mappedLoader(data []byte) arrayLoader {
	return arrayLoader{
		bytes: func(typ uint32) ([]byte, error) {
			s, ok := c.Section(typ)
			if !ok {
				return nil, fmt.Errorf("%w: missing section type %d", ErrCorrupt, typ)
			}
			return data[s.Offset : s.Offset+s.Length], nil
		},
		f64s: castF64s,
		i64s: castI64s,
		i32s: castI32s,
	}
}

// readOperator reads the operator artifact open as f (size bytes). With
// mapped set, on a little-endian host with mmap, the arrays alias a
// read-only memory mapping: zero deserialization, and every section CRC
// verified over the mapping in place before the operator is returned. That
// pass faults each page in once, so the first apply finds them resident,
// and copies nothing to the heap: on the Structured(16) P2 operator
// (9.6 MB, 2-vCPU guest) the load's median went 2.9–4.5 → 1.65–2.56 ms,
// and its allocation 9.6 MB → 7 KB, against reading each section onto the
// heap to checksum it. Otherwise — or if mmap itself fails, an environment
// limitation rather than corruption — the arrays are read into heap slices
// by one sequential decode pass. The boolean reports whether the mapping
// was used.
func readOperator(f *os.File, size int64, key string, mapped bool) (*operator.Operator, bool, error) {
	if mapped && mmapSupported && hostLittleEndian && size > 0 {
		if data, err := mmapFile(f, size); err == nil {
			m := &Mapping{data: data}
			runtime.SetFinalizer(m, func(m *Mapping) { _ = m.Close() })
			op, err := mapOperator(m, key)
			if err != nil {
				_ = m.Close()
				return nil, false, err
			}
			return op, true, nil
		}
	}
	c, err := Parse(f, size)
	if err != nil {
		return nil, false, err
	}
	op, err := c.DecodeOperator(key)
	return op, false, err
}

func mapOperator(m *Mapping, key string) (*operator.Operator, error) {
	c, err := Parse(bytes.NewReader(m.data), int64(len(m.data)))
	if err != nil {
		return nil, err
	}
	// Full CRC verification up front, over the mapped payloads themselves:
	// a mapped operator is applied many times without further checks, so
	// integrity is settled once here.
	for _, s := range c.Sections {
		if err := verifySection(s, m.data[s.Offset:s.Offset+s.Length]); err != nil {
			return nil, err
		}
	}
	return c.loadOperator(key, c.mappedLoader(m.data), m)
}
