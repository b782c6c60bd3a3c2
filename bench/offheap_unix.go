//go:build unix

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offheap returns n zeroed values of T outside the Go heap; T must hold no
// pointers. The benchmark's own big arrays — the pre-encoded frames, the
// served-verdict flags, the served reads — live here for two reasons. The
// collector sizes its next cycle from the live heap: a hundred megabytes of
// input in it would let the stack's garbage pile up fifty times longer than
// it does in a server of its own, and hide what the stack's allocations
// cost. And on the builder's host the first touch of a page the VM has not
// used before costs 0.15 ms (1 GB: 40 s; touched again: 3 s): a heap that
// grows into fresh pages during a window halves its throughput, so nothing
// of the benchmark's own grows while the clock runs.
func offheap[T any](n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap of %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}

// release returns what offheap handed out; s may have been resliced from
// its start.
func release[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*int(unsafe.Sizeof(zero)))
	_ = syscall.Munmap(b) // fails only for a slice offheap did not return
}
