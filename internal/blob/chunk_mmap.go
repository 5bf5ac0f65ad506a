//go:build linux || darwin

package blob

import "syscall"

// mapChunk maps n bytes of anonymous, private, zeroed memory outside the Go
// heap.
func mapChunk(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapChunk gives a chunk mapChunk returned back to the operating system.
func unmapChunk(b []byte) error {
	return syscall.Munmap(b)
}
