package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds. Values ride the EVENTS wire op; append,
// never renumber.
const (
	// EventAdmit: the admission policy accepted an object (Importance is
	// its initial importance, Boundary the highest importance preempted).
	EventAdmit EventKind = iota
	// EventReject: the admission policy refused an object (Boundary is the
	// importance that blocked it).
	EventReject
	// EventEvict: a resident was preempted or swept.
	EventEvict
	// EventBoundary: the importance boundary moved materially between
	// density samples (Importance is the new boundary, Boundary the old).
	EventBoundary
	// EventReplicaPush: an ingest-time replica push to Peer completed
	// (Detail says admitted/failed).
	EventReplicaPush
	// EventReplicaPull: an anti-entropy pull from Peer completed.
	EventReplicaPull
	// EventMemberUp: a member transitioned to alive (first sighting or a
	// dead peer's return).
	EventMemberUp
	// EventMemberDown: a member's advertisement went stale past DeadAfter.
	EventMemberDown
	// EventQuarantine: a resident's payload failed verification and the
	// object was quarantined.
	EventQuarantine
	// EventHeal: a quarantined object was restored from a replica.
	EventHeal
	// EventConfigMismatch: a gossip exchange carried a cluster config that
	// conflicted with ours -- adopted when strictly newer, rejected when it
	// disagreed at an equal version (Detail says which; Peer is the other
	// side).
	EventConfigMismatch
)

// eventKindNames are the kinds' mnemonics, as Dump, besteffsctl events and
// the status JSON print them.
var eventKindNames = [...]string{
	EventAdmit:          "admit",
	EventReject:         "reject",
	EventEvict:          "evict",
	EventBoundary:       "boundary",
	EventReplicaPush:    "replica-push",
	EventReplicaPull:    "replica-pull",
	EventMemberUp:       "member-up",
	EventMemberDown:     "member-down",
	EventQuarantine:     "quarantine",
	EventHeal:           "heal",
	EventConfigMismatch: "config-mismatch",
}

// String returns the kind mnemonic.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalText encodes the kind as its mnemonic.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a mnemonic.
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, name := range eventKindNames {
		if name == string(b) {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", b)
}

// Event is one structured flight-recorder entry: a decision the node made,
// with the numbers that drove it.
type Event struct {
	// Seq is the recorder-assigned global order (assigned by Record).
	Seq uint64 `json:"seq"`
	// Wall is the wall-clock time of the event (assigned by Record).
	Wall time.Time `json:"at"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// ID is the object concerned ("" for membership events).
	ID string `json:"id,omitempty"`
	// Peer is the remote node concerned ("" for local-only events).
	Peer string `json:"peer,omitempty"`
	// Trace links the event to a distributed trace ("" when untraced).
	Trace string `json:"trace,omitempty"`
	// Importance is the kind-specific primary value (initial importance,
	// new boundary, density -- see the kind docs).
	Importance float64 `json:"importance,omitempty"`
	// Boundary is the kind-specific secondary value (preempting
	// importance, old boundary).
	Boundary float64 `json:"boundary,omitempty"`
	// Detail is a short free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// String formats the event on one line -- sequence, wall time, kind and
// the fields that are set -- as the flight recorder's Dump and besteffsctl
// events print it.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %s %-12s", e.Seq, e.Wall.Format(time.RFC3339Nano), e.Kind)
	if e.ID != "" {
		fmt.Fprintf(&b, " id=%s", e.ID)
	}
	if e.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", e.Peer)
	}
	if e.Importance != 0 || e.Boundary != 0 {
		fmt.Fprintf(&b, " imp=%.3f boundary=%.3f", e.Importance, e.Boundary)
	}
	if e.Trace != "" {
		fmt.Fprintf(&b, " trace=%s", e.Trace)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}
