package wire

import (
	"bytes"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

func TestClusterMessageRoundTrips(t *testing.T) {
	day := importance.Day
	twoStep := importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 20 * day}
	entries := []IndexEntry{
		{ID: "a/1", Version: 2, CRC: 0xDEADBEEF, Size: 4096, Initial: 0.9, AgeNanos: int64(time.Hour)},
		{ID: "b/2", Version: 1, CRC: 7, Size: 1, Initial: 1, AgeNanos: 0},
	}
	members := []MemberInfo{
		{Addr: "10.0.0.1:7070", Incarnation: 11, Version: 3, Boundary: 0.25, Free: 1 << 30, Density: 0.8, Alive: true,
			Device: "ab12cd34ef56", ConfigVersion: 3},
		{Addr: "10.0.0.2:7070", Incarnation: 9, Version: 88, Boundary: 0, Free: 0, Density: 0.1, Alive: false},
	}
	cfg := ClusterConfig{
		Version: 3, Origin: "10.0.0.1:7070", Replicas: 2, Threshold: 0.8,
		GossipIntervalNanos: int64(time.Second), RepairIntervalNanos: int64(30 * time.Second),
	}
	tests := []Message{
		&Replicate{
			ID: "cs101/l1", Owner: "prof", Class: object.ClassUniversity,
			Version: 2, Importance: twoStep,
			AgeNanos: int64(3 * time.Hour), Payload: []byte("video-bytes"),
		},
		&Index{Threshold: 0.5},
		&IndexResult{Entries: entries},
		&IndexResult{},
		&Gossip{
			From: members[0], Epoch: 4,
			ShareValue: 0.41, ShareWeight: 0.5, Members: members, Config: cfg,
		},
		&Gossip{From: members[1]},
		&GossipResult{Epoch: 4, ShareValue: 0.2, ShareWeight: 0.25, Members: members, Config: cfg},
		&GossipResult{},
		&IndexDelta{
			From: "10.0.0.1:7070", Threshold: 0.8, BaseSeq: 6, Seq: 7,
			Upserts: entries, Removed: []object.ID{"e", "f"},
		},
		&IndexDelta{From: "10.0.0.2:7070", Full: true, Seq: 1, Upserts: entries},
		&IndexDelta{},
		&IndexDeltaResult{AckSeq: 7, Missing: entries, Need: []object.ID{"c"}},
		&IndexDeltaResult{Resync: true},
		&IndexDeltaResult{},
		&Members{},
		&MembersResult{Members: members},
		&MembersResult{},
		&RepairStatus{},
		&RepairStatusResult{
			Replicas: 2, Threshold: 0.8, Pushed: 100, Pulled: 7,
			PushFailures: 1, Passes: 12, UnderReplicated: 3, Pending: 1,
			BytesRepaired: 1 << 20, LastPassNanos: int64(250 * time.Millisecond),
		},
	}
	for _, m := range tests {
		t.Run(m.Op().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if got.Op() != m.Op() {
				t.Fatalf("op = %v, want %v", got.Op(), m.Op())
			}
			a, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encode original: %v", err)
			}
			b, err := Encode(got)
			if err != nil {
				t.Fatalf("re-encode decoded: %v", err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("round trip changed encoding:\n%v\n%v", a, b)
			}
		})
	}
}

func TestSupersedes(t *testing.T) {
	tests := []struct {
		aVer, bVer uint32
		aCRC, bCRC uint32
		want       bool
	}{
		{2, 1, 0, 9, true},  // higher version wins regardless of CRC
		{1, 2, 9, 0, false}, // lower version loses
		{1, 1, 5, 5, false}, // identical copies: neither supersedes
		{1, 1, 9, 5, true},  // divergent at equal version: higher CRC wins
		{1, 1, 5, 9, false}, // ... and the loser must agree
	}
	for _, tt := range tests {
		if got := Supersedes(tt.aVer, tt.bVer, tt.aCRC, tt.bCRC); got != tt.want {
			t.Errorf("Supersedes(v%d/c%d over v%d/c%d) = %v, want %v",
				tt.aVer, tt.aCRC, tt.bVer, tt.bCRC, got, tt.want)
		}
	}
}

// TestSupersedesConverges: for any two distinct copies, exactly one side
// supersedes -- the convergence property anti-entropy relies on.
func TestSupersedesConverges(t *testing.T) {
	versions := []uint32{0, 1, 2}
	crcs := []uint32{0, 7, 0xFFFFFFFF}
	for _, av := range versions {
		for _, bv := range versions {
			for _, ac := range crcs {
				for _, bc := range crcs {
					same := av == bv && ac == bc
					ab := Supersedes(av, bv, ac, bc)
					ba := Supersedes(bv, av, bc, ac)
					if same && (ab || ba) {
						t.Fatalf("identical copies supersede: v%d c%d", av, ac)
					}
					if !same && ab == ba {
						t.Fatalf("no winner between v%d/c%d and v%d/c%d", av, ac, bv, bc)
					}
				}
			}
		}
	}
}
