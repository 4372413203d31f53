package route

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/claim"
	"repro/internal/fee"
	"repro/internal/trace"
)

// UnitID derives the document ID of one routed sub-claim. It is
// content-addressed — a hash of the routed entry and the sub-claim text —
// so the library path, a serving replica, and a sharding coordinator all
// derive the same identity for the same routed sub-claim, which is what
// makes verdicts (seeded per doc ID) and verdict memos bit-identical across
// topologies.
func UnitID(entryName, sentence, value, context string) string {
	h := sha256.New()
	for _, s := range []string{entryName, sentence, value, context} {
		var n [8]byte
		copy(n[:], fmt.Sprintf("%08x", len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return "route:" + entryName + ":" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Unit is one routed sub-claim: a synthetic single-claim document bound to
// the routed entry's database.
type Unit struct {
	Doc   *claim.Document
	Entry *Entry
	Sub   SubClaim
	Score float64
	Tied  bool
}

// Routed records the decomposition of one compound claim.
type Routed struct {
	Doc   *claim.Document // the original document
	Index int             // claim index within Doc
	Claim *claim.Claim
	Units []*Unit
}

// Plan is the routed expansion of a document set. Expanded holds what the
// verification pipeline should actually run: documents without compound
// claims pass through as the very same pointers (the single-database
// degenerate case is byte-identical to not routing at all), documents with
// compound claims are replaced by a copy stripped of them, and every routed
// sub-claim appears as a synthetic single-claim document. Identical
// sub-claims routed to the same entry are deduplicated — they would verify
// identically anyway, and duplicate document IDs would make trace sequence
// numbers scheduling-dependent — but every routing decision still books its
// fee.
type Plan struct {
	Original []*claim.Document
	Expanded []*claim.Document
	Routed   []*Routed
	// SubClaims counts routing decisions (fee-bearing), including ones that
	// reused a deduplicated unit.
	SubClaims int
	// Fee is the total routing cost: fee × SubClaims.
	Fee fee.Fee
}

// PlanDocuments decomposes and routes every compound claim of docs against
// the catalog. It never mutates docs. A claim whose decomposition fails, or
// a catalog with no entries, leaves the claim untouched on its home
// database.
func PlanDocuments(docs []*claim.Document, cat *Catalog, opts Options) *Plan {
	p := &Plan{Original: docs}
	units := make(map[string]*Unit)
	for _, doc := range docs {
		p.planDoc(doc, cat, opts, units)
	}
	return p
}

// planDoc expands one document into p.
func (p *Plan) planDoc(doc *claim.Document, cat *Catalog, opts Options, units map[string]*Unit) {
	type expansion struct {
		index int
		units []*Unit
	}
	var expansions []expansion
	if cat != nil && cat.Len() > 0 {
		for i, c := range doc.Claims {
			subs := Decompose(c.Sentence, c.Value, c.Context)
			if len(subs) < 2 {
				continue
			}
			routed := p.routeSubs(doc, i, subs, cat, opts, units)
			if routed == nil {
				continue
			}
			expansions = append(expansions, expansion{index: i, units: routed})
		}
	}
	if len(expansions) == 0 {
		p.Expanded = append(p.Expanded, doc)
		return
	}
	compound := make(map[int][]*Unit, len(expansions))
	for _, e := range expansions {
		compound[e.index] = e.units
	}
	reduced := *doc
	reduced.Claims = nil
	for i, c := range doc.Claims {
		us, ok := compound[i]
		if !ok {
			reduced.Claims = append(reduced.Claims, c)
			continue
		}
		p.Routed = append(p.Routed, &Routed{Doc: doc, Index: i, Claim: c, Units: us})
	}
	if len(reduced.Claims) > 0 {
		p.Expanded = append(p.Expanded, &reduced)
	}
	for _, e := range expansions {
		for _, u := range e.units {
			if u.Doc != nil && !containsDoc(p.Expanded, u.Doc) {
				p.Expanded = append(p.Expanded, u.Doc)
			}
		}
	}
}

// routeSubs binds every sub-claim of one compound claim, reusing
// already-planned units by content identity. It returns nil when any
// sub-claim fails to materialize (the claim then passes through whole).
func (p *Plan) routeSubs(doc *claim.Document, claimIdx int, subs []SubClaim, cat *Catalog, opts Options, units map[string]*Unit) []*Unit {
	parent := doc.Claims[claimIdx]
	out := make([]*Unit, 0, len(subs))
	for j, sub := range subs {
		entry, score, tied := cat.Bind(opts.Seed, doc.ID, claimIdx, j, sub)
		if entry == nil {
			return nil
		}
		traceRoute(opts.Tracer, doc.ID, claimIdx, j, cat, sub, entry, score, tied)
		uid := UnitID(entry.Name(), sub.Sentence, sub.Value, sub.Context)
		u, ok := units[uid]
		if !ok {
			uc, err := claim.New(parent.ID+"#"+fmt.Sprint(j+1), sub.Sentence, sub.Value, sub.Context)
			if err != nil {
				return nil
			}
			u = &Unit{
				Doc: &claim.Document{
					ID:     uid,
					Title:  fmt.Sprintf("Routed sub-claim of %s", doc.ID),
					Domain: "route",
					Data:   entry.DB,
					Claims: []*claim.Claim{uc},
				},
				Entry: entry, Sub: sub, Score: score, Tied: tied,
			}
			units[uid] = u
		}
		out = append(out, u)
	}
	// Fees book only for fully-routed claims: a claim that falls back to
	// passthrough pays nothing.
	p.SubClaims += len(out)
	p.Fee += DefaultFee * fee.Fee(len(out))
	return out
}

// traceRoute records the scoring and pick spans of one routing decision
// under the parent claim's identity, with Try = the sub-claim ordinal.
func traceRoute(tr *trace.Tracer, docID string, claimIdx, subIdx int, cat *Catalog, sub SubClaim, entry *Entry, score float64, tied bool) {
	if !tr.Enabled() {
		return
	}
	key := trace.Key{Doc: docID, Claim: claimIdx, Method: "route", Try: subIdx}
	top := cat.Score(sub.Sentence)
	if len(top) > DefaultTopK {
		top = top[:DefaultTopK]
	}
	var detail strings.Builder
	for i, s := range top {
		if i > 0 {
			detail.WriteByte(' ')
		}
		fmt.Fprintf(&detail, "%s=%.3f", s.Entry.Name(), s.Value)
	}
	tr.Record(trace.Span{Key: key, Kind: trace.KindRouteScore, Detail: detail.String()})
	outcome := "picked"
	if tied {
		outcome = "tie-break"
	}
	tr.Record(trace.Span{
		Key: key, Kind: trace.KindRoutePick, Outcome: outcome,
		Detail: fmt.Sprintf("%s score=%.3f", entry.Name(), score),
	})
}

// containsDoc reports whether docs already holds d (pointer identity; unit
// documents are interned per content identity).
func containsDoc(docs []*claim.Document, d *claim.Document) bool {
	for _, x := range docs {
		if x == d {
			return true
		}
	}
	return false
}

// Recombine writes each compound claim's recombined verdict back into the
// original documents. Call it after the expanded documents have been
// verified.
func (p *Plan) Recombine() {
	for _, r := range p.Routed {
		subs := make([]claim.Result, len(r.Units))
		for i, u := range r.Units {
			subs[i] = u.Doc.Claims[0].Result
		}
		res := Combine(subs)
		res.Trace = combineTrace(r)
		r.Claim.Result = res
	}
}

// Combine recombines sub-claim results under AND-semantics: the compound
// claim is verified/correct/executable only when every sub-claim is, costs
// the sum of sub-claim attempts, and fails (Method "failed", first failure
// propagated) when any sub-claim's verification died on transport — a
// partially-verified conjunction carries no semantic verdict, exactly like
// a partially-verified claim (metrics tallies it as Failed, outside the
// confusion matrix).
func Combine(subs []claim.Result) claim.Result {
	if len(subs) == 0 {
		return claim.Result{}
	}
	out := claim.Result{Verified: true, Correct: true, Executable: true}
	methods := make([]string, 0, len(subs))
	var queries []string
	failed := false
	for _, r := range subs {
		out.Attempts += r.Attempts
		out.Verified = out.Verified && r.Verified
		out.Correct = out.Correct && r.Correct
		out.Executable = out.Executable && r.Executable
		if r.Query != "" {
			queries = append(queries, r.Query)
		}
		methods = append(methods, r.Method)
		if r.Method == claim.MethodFailed && !failed {
			failed = true
			out.Failure = r.Failure
		}
	}
	out.Query = strings.Join(queries, "; ")
	if failed {
		out.Method = claim.MethodFailed
	} else {
		out.Method = "route(" + strings.Join(methods, ",") + ")"
	}
	return out
}

// combineTrace renders the routing transcript of one recombined claim.
func combineTrace(r *Routed) string {
	var b strings.Builder
	fmt.Fprintf(&b, "routed %d sub-claims\n", len(r.Units))
	for i, u := range r.Units {
		res := u.Doc.Claims[0].Result
		fmt.Fprintf(&b, "sub %d/%d -> %s (score %.3f): %s [%s verified=%t correct=%t]\n",
			i+1, len(r.Units), u.Entry.Name(), u.Score, u.Sub.Sentence, res.Method, res.Verified, res.Correct)
	}
	return b.String()
}
