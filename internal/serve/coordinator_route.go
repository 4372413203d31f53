package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/claim"
	"repro/internal/route"
	"repro/internal/shard"
)

// RouteConfig enables cross-database claim routing at the coordinator
// (DESIGN.md §16): compound claims decompose before sharding, each sub-claim
// fans out to the replica owning its *routed* fingerprint, and the
// sub-verdicts recombine at the coordinator in caller order. The
// configuration must mirror the replicas' (same catalog database contents,
// same seed) so a sub-claim planned here binds exactly as it would have on a
// route-enabled replica or in the library.
type RouteConfig struct {
	// Catalog indexes the routable (database, table) entries.
	Catalog *route.Catalog
	// Seed is the routing tie-break seed — the replicas' verification seed.
	Seed int64
	// TopK bounds the candidate tables per sub-claim (0 = route.DefaultTopK).
	TopK int
}

// planRouted converts wire documents into the domain model (applying the
// doc-ID and claim-ID defaults the replicas would apply) and plans routing
// over them. It returns nil when routing changes nothing — malformed claims,
// no compound claims, or nothing routable — in which case the caller falls
// back to the raw relay path, byte-for-byte what a route-less coordinator
// does.
func (c *Coordinator) planRouted(inputs []DocumentInput) (*route.Plan, []*claim.Document) {
	rc := c.cfg.Route
	if rc == nil || rc.Catalog == nil || rc.Catalog.Len() == 0 {
		return nil, nil
	}
	docs := make([]*claim.Document, 0, len(inputs))
	for _, in := range inputs {
		doc, err := buildDocument(in, c.cfg.DocID, nil)
		if err != nil {
			// Let the replica produce the canonical validation error.
			return nil, nil
		}
		docs = append(docs, doc)
	}
	plan := route.PlanDocuments(docs, rc.Catalog, route.Options{
		Seed:   rc.Seed,
		TopK:   rc.TopK,
		Tracer: c.cfg.Tracer,
	})
	if len(plan.Routed) == 0 {
		return nil, nil
	}
	return plan, docs
}

// wireDocument renders one expanded document back onto the wire with its
// identities pinned — the IDs are routing and seeding identities now, so the
// replicas must not re-default them.
func wireDocument(d *claim.Document) DocumentInput {
	in := DocumentInput{DocID: d.ID, Claims: make([]ClaimInput, 0, len(d.Claims))}
	for _, cl := range d.Claims {
		in.Claims = append(in.Claims, ClaimInput{
			ID: cl.ID, Sentence: cl.Sentence, Value: cl.Value, Context: cl.Context,
		})
	}
	return in
}

// wireResult converts a replica's claim verdict back into the domain result
// recombination runs on. The wire does not carry Executable; Combine ANDs it
// but no wire output reads it, so false is safe.
func wireResult(cr ClaimResult) claim.Result {
	return claim.Result{
		Correct:  cr.Correct,
		Verified: cr.Verified,
		Method:   cr.Method,
		Query:    cr.Query,
		Attempts: cr.Attempts,
		Failure:  cr.Failure,
	}
}

// verifyExpanded sends the plan's expanded documents through the scatter —
// each routed by its own (routed) fingerprint — writes the replica verdicts
// back into the expanded documents, recombines them into the caller's, and
// returns the batch stats. Failures come back as scatterDocs reports them.
func (c *Coordinator) verifyExpanded(ctx context.Context, plan *route.Plan) (BatchStats, *shard.Result, error) {
	wire := make([]DocumentInput, len(plan.Expanded))
	for i, d := range plan.Expanded {
		wire[i] = wireDocument(d)
	}
	results, stats, relayRes, err := c.scatterDocs(ctx, wire)
	if err != nil || relayRes != nil {
		return BatchStats{}, relayRes, err
	}
	for i, d := range plan.Expanded {
		for k, cl := range d.Claims {
			cl.Result = wireResult(results[i].Claims[k])
		}
	}
	// The coordinator made the routing decisions, so it books their fees —
	// exactly what the library path adds to Report.Dollars.
	stats.Dollars += plan.Fee
	plan.Recombine()
	// Fees and calls sum across the unit verifications, but doc/claim counts
	// describe the caller's request — a direct route-enabled replica reports
	// the original counts, not the expanded units, and so do we.
	stats.Docs = len(plan.Original)
	stats.Claims = 0
	for _, d := range plan.Original {
		stats.Claims += len(d.Claims)
	}
	return stats, nil, nil
}

// tryRouted answers a verification request whose claims routing applies to:
// the caller's documents come back in caller order, compound-claim verdicts
// recombined from their routed sub-claims, in the envelope render builds
// (VerifyResponse or BatchResponse). It reports whether it wrote a response;
// false means the request has no routable compound claims and the ordinary
// relay path should run.
func (c *Coordinator) tryRouted(ctx context.Context, w http.ResponseWriter, started time.Time, inputs []DocumentInput, render func([]DocumentResult, BatchStats) any) bool {
	plan, docs := c.planRouted(inputs)
	if plan == nil {
		return false
	}
	stats, relayRes, err := c.verifyExpanded(ctx, plan)
	if c.scatterFailed(w, relayRes, err) {
		return true
	}
	results := make([]DocumentResult, len(docs))
	for i, d := range docs {
		results[i] = documentResult(d)
	}
	c.met.recordRequest(time.Since(started))
	writeJSON(w, http.StatusOK, render(results, stats))
	return true
}
