package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/policy"
	"besteffs/internal/server"
)

// TestPutReportsTheRejectionReason drives `besteffsctl put` against a
// fair-share node until it refuses: an object over the owner's share is
// too-large, one its owner cannot make room for is over quota, and one no
// resident can be preempted for finds the node full. Each refusal names the
// reason the node gave.
func TestPutReportsTheRejectionReason(t *testing.T) {
	srv, err := server.New(server.EngineConfig{Capacity: 1000, Policy: policy.FairShare{MaxFraction: 0.5}},
		server.WithLogger(quiet))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	dir := t.TempDir()
	put := func(id, owner, spec string, size int) error {
		t.Helper()
		file := filepath.Join(dir, id)
		if err := os.WriteFile(file, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		return cmdPut(context.Background(), []*client.Client{c}, []string{id, file}, spec, owner, 0)
	}
	for _, seed := range []struct{ id, owner string }{{"a1", "alice"}, {"b1", "bob"}} {
		if err := put(seed.id, seed.owner, "constant:p=1", 400); err != nil {
			t.Fatalf("put %s: %v", seed.id, err)
		}
	}
	for _, tt := range []struct {
		id, owner string
		size      int
		want      string
	}{
		{"huge", "carol", 600, "rejected (too-large)"},
		{"a2", "alice", 200, "rejected (quota) at importance boundary 1.000"},
		{"c1", "carol", 300, "rejected (full) at importance boundary 1.000"},
	} {
		err := put(tt.id, tt.owner, "constant:p=0.5", tt.size)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("put %s (%d bytes by %s) = %v, want %q", tt.id, tt.size, tt.owner, err, tt.want)
		}
	}
}
