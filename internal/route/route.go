// Package route implements cross-database claim routing (ROADMAP item 4,
// DESIGN.md §16): compound claims — conjunctions joining several atomic
// factual statements, possibly about different databases — are decomposed
// into sub-claims, each sub-claim is scored against every table of a
// registered catalog via embedding similarity over lexical surfaces, an
// agent-style routing stage picks one binding per sub-claim with seeded
// tie-breaking, the sub-claims are verified as ordinary single-claim
// documents against their routed databases, and the sub-verdicts are
// recombined under AND-semantics with failure propagation.
//
// Everything in this package is deterministic: decomposition is a pure
// function of the claim text, catalog scores are pure functions of the
// catalog contents and the sentence, and the routing pick depends only on
// (seed, claim identity, candidate set). The same compound claim therefore
// routes identically whether it is planned inside the cedar library, on a
// serving replica, or at a sharding coordinator — which is what lets the
// routed serving path fan sub-claims out across a shard ring and still merge
// bit-identical verdicts (the `make route` gate).
package route

import (
	"repro/internal/fee"
	"repro/internal/trace"
)

// DefaultTopK is the number of top-scoring catalog candidates the routing
// stage considers per sub-claim.
const DefaultTopK = 3

// DefaultFee is the priced cost of one routing decision (one sub-claim
// scored and bound), $0.0001 in the same simulated money as model fees. It
// is far cheaper than a verification call — routing uses embeddings and the
// catalog only — but not free, and the DP scheduler prices it (schedule.RouteStage).
const DefaultFee fee.Fee = 100_000

// DefaultAccuracy is the modeled probability that the routing stage binds a
// sub-claim to the right table — the "wrong-routing risk" the scheduler
// multiplies into a routed schedule's expected accuracy. The routebench
// corpus measures the realized value (≥ 0.9 by the acceptance gate); the
// model is deliberately a little conservative.
const DefaultAccuracy = 0.96

// Options configure planning. The zero value is usable. Every sub-claim
// routing decision books DefaultFee.
type Options struct {
	// Seed drives the routing stage's tie-breaking; it must match across
	// topologies (library, replica, coordinator) for identical bindings.
	Seed int64
	// Tracer, when non-nil, records route_score/route_pick spans under the
	// parent claim's identity. Both kinds are dropped by
	// trace.ReplayNormalize: the routing transcript is a property of how the
	// claim was planned, not of the verification work.
	Tracer *trace.Tracer
}
