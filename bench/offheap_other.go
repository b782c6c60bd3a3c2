//go:build !unix

package main

// offheap falls back to the Go heap where there is no mmap (see
// offheap_unix.go for what that costs the measurement).
func offheap[T any](n int) ([]T, error) { return make([]T, n), nil }

func release[T any](s []T) {}
