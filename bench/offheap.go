//go:build linux

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns a zeroed slice of n Ts mapped outside the Go heap, and
// the function that unmaps it. The harness keeps its own bulky records
// there — displayed seqnos, latency samples, span buffers — so they do not
// count as live heap: a few hundred MB of harness data inside the heap
// would halve how often the collector runs and flatter the program under
// test. T must not contain pointers; the collector does not scan the
// mapping.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d bytes off heap: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }, nil
}
