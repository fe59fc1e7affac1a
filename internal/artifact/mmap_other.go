//go:build !(linux || darwin)

package artifact

import (
	"errors"
	"os"
)

// mmapSupported reports whether this platform has the zero-copy load path;
// without it a mapped Store.LoadOperator transparently falls back to the
// portable sequential decode.
const mmapSupported = false

func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("artifact: mmap unsupported on this platform")
}

func munmapFile(b []byte) error { return nil }
