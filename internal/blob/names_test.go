package blob

import "besteffs/internal/journal"

// segName is a payload segment's file name: the WAL's scheme.
var segName = journal.Segments.Name
