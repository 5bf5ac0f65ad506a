// Package consumer exercises the suppression directive -- honoured, bare,
// stale and naming an unknown check -- against uncheckederr findings, and
// the wall-clock exemption for packages off the deterministic list.
package consumer

import (
	"time"

	"fixture/internal/journal"
)

// Legacy journals without looking at the result.
type Legacy struct {
	wal journal.WAL
}

// Touch drops an append error.
func (l *Legacy) Touch() {
	l.wal.Append("touch") // want "drops its error"
}

// flush drops a sync error at a deferred call site.
func flush(w *journal.WAL) {
	defer w.Sync() // want "drops its error"
}

// grandfathered documents why one dropped error deliberately stays.
func grandfathered(w *journal.WAL) {
	//lint:ignore uncheckederr best-effort flush on an exit path that already failed
	w.Sync()
}

// bare is preceded by a reason-less directive; the directive itself is the
// finding (lintdirective, asserted by the test harness) and suppresses
// nothing.
//
//lint:ignore uncheckederr
var bare = time.Now().Unix()

// stale carries a directive that suppresses nothing: uncheckederr runs and
// finds nothing on the covered lines, so the directive itself is the
// finding (lintdirective, asserted by the test harness).
//
//lint:ignore uncheckederr the call below used to drop its error
var stale = "nothing left to suppress"

// typoed names a check that does not exist; the directive is the finding
// (lintdirective, asserted by the test harness).
//
//lint:ignore nosuchcheck survives every rename of the real checks
var typoed = 1

// Uptime may read the wall clock: consumer is not a deterministic package.
func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}
