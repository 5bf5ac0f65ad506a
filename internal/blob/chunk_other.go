//go:build !(linux || darwin)

package blob

// mapChunk takes n bytes from the heap where the arena has no mmap to map
// them with: the payloads are then the collector's again, as before the
// arena.
func mapChunk(n int) ([]byte, error) {
	return make([]byte, n), nil
}

// unmapChunk leaves the chunk to the collector.
func unmapChunk([]byte) error { return nil }
