package serve

import (
	"beacongnn/internal/platform"
)

// family groups simulate requests by what makes their results mutually
// substitutable for degraded serving: the platform kind and dataset.
// Seed, scale, and timing overrides vary within a family — a stale
// result for a sibling config is still a representative answer when
// the alternative is a 503.
type family struct {
	kind    platform.Kind
	dataset string
}

// staleRecord is the last-known-good result of one family — its
// platform and dataset names and its encoded bytes, spliced into a
// degraded reply as they are — plus the shape it was computed at
// (reported back so a degraded client knows what it is actually
// looking at). The server keeps them in an exp.Cache capped at
// StaleCap, through Put and Get only: a resident family is updated in
// place on the hot path, without allocating.
type staleRecord struct {
	platform, dataset string
	result            []byte
	nodes             int
	batches           int
}
