//go:build !unix

package iface

import (
	"errors"
	"os"
)

// ErrShmUnsupported is returned by the shared-memory transport on
// platforms without mmap support.
var ErrShmUnsupported = errors.New("iface: shared-memory transport unsupported on this platform")

// mmapFile fails on platforms without shared file mappings; the
// shared-memory transport is unavailable there (ErrShmUnsupported).
func mmapFile(f *os.File, size int) ([]byte, error) { return nil, ErrShmUnsupported }

// munmapFile is a no-op on platforms without mmap.
func munmapFile(b []byte) error { return nil }
