package cedar

import (
	"crypto/sha256"
	"slices"

	"repro/internal/claim"
	"repro/internal/route"
	"repro/internal/sqldb"
	"repro/internal/store"
)

// Verdict memos (DESIGN.md §11) persist claim-level outcomes in the result
// store under a fingerprint of everything a verdict depends on: the database
// contents, the claim's identity and text, the system configuration including
// the planned schedule, and a code version. The memo layer is a validating
// oracle, not a bypass — Verify always recomputes the verdict and then checks
// it against the memo, so a stale or colliding memo can surface as a mismatch
// but can never change a verdict.

// verdictCodeVersion tags memo keys with the verification semantics they were
// computed under. Bump it whenever a change alters what verdict the pipeline
// produces for the same (database, claim, config) — old memos then read as
// misses instead of false mismatches.
const verdictCodeVersion = 1

// dbFingerprint digests a database's full identity: name, table order,
// schema (column names and inferred types), and every row value. Two
// databases with the same fingerprint present identical data to every SQL
// query the verifier can generate.
func dbFingerprint(db *sqldb.Database) [32]byte { return digestCatalog(db.Name, db.Tables()) }

// digestCatalog is dbFingerprint over a database's name and its tables in
// registration order.
func digestCatalog(name string, tables []*sqldb.Table) [32]byte {
	var e store.Enc
	e.Str(name)
	e.U64(uint64(len(tables)))
	for _, t := range tables {
		e.Str(t.Name)
		cols := t.Schema()
		e.U64(uint64(len(cols)))
		for _, c := range cols {
			e.Str(c.Name)
			e.U64(uint64(c.Type))
		}
		e.U64(uint64(t.NumRows()))
		for r := 0; r < t.NumRows(); r++ {
			for c := range cols {
				e.Str(t.Cell(r, c).String())
			}
		}
	}
	return sha256.Sum256(e.B)
}

// dbPrint is a database's fingerprint with the catalog it digests: the
// database's name and its registered tables, in order.
type dbPrint struct {
	name   string
	tables []*sqldb.Table
	fp     [32]byte
}

// printOf fingerprints db, reusing its print in last when that digests the
// catalog db holds now. A registered table is frozen (DESIGN.md §12), so the
// same name and the same table pointers in the same order are the same data,
// and only a table added, replaced or removed, or a renamed database, costs
// a digest of every cell again.
func printOf(db *sqldb.Database, last map[*sqldb.Database]dbPrint) dbPrint {
	p := dbPrint{name: db.Name, tables: db.Tables()}
	if old, ok := last[db]; ok && old.name == p.name && slices.Equal(old.tables, p.tables) {
		return old
	}
	p.fp = digestCatalog(p.name, p.tables)
	return p
}

// configFingerprint digests every option that can change a verdict, plus the
// planned schedule and the code version. Workers is deliberately excluded —
// the determinism contract says it must not affect verdicts — as are
// CacheDir/CacheResponses themselves (the store must be transparent) and the
// Tracer (observability only).
func (s *System) configFingerprint() [32]byte {
	o := s.opts
	var e store.Enc
	e.U64(verdictCodeVersion)
	e.U64(uint64(o.Seed))
	e.F64(o.AccuracyTarget)
	e.F64(o.CostBudgetPerClaim)
	e.U64(0) // the retired MaxTries option, always 0: keeps existing verdict memos' keys
	e.U64(uint64(o.Retries))
	e.U64(uint64(o.Timeout))
	e.U64(uint64(o.HedgeAfter))
	e.U64(uint64(o.BreakerThreshold))
	e.F64(o.FaultRate)
	e.Str(s.Schedule())
	// Routing fields participate only when routing is on, so every
	// fingerprint computed before routing existed — and every run with
	// routing off — keeps its exact pre-routing key material.
	if o.Route {
		e.Str("route")
		e.U64(0) // the retired RouteTopK option, always 0: keeps route-enabled memos' keys
		e.F64(route.DefaultFee.Dollars())
		e.F64(route.DefaultAccuracy)
		e.B = append(e.B, s.catalogFP...)
	}
	return sha256.Sum256(e.B)
}

// memoKey builds the store key of one claim's verdict memo. The claim's
// document ID and index participate because verdicts genuinely depend on them:
// every attempt's randomness is split off (Seed, docID, claimIndex, method,
// try), so the same sentence in a different position may legitimately verify
// differently.
func memoKey(dbFP, cfgFP [32]byte, docID string, claimIdx int, c *claim.Claim) []byte {
	e := store.Enc{B: []byte(store.Memos)}
	e.B = append(e.B, dbFP[:]...)
	e.B = append(e.B, cfgFP[:]...)
	e.Str(docID)
	e.U64(uint64(claimIdx))
	e.Str(c.Sentence)
	e.Str(c.Value)
	e.Str(c.Context)
	return e.B
}

// memoVersion tags the on-disk memo value encoding (distinct from
// verdictCodeVersion, which is about semantics and lives in the key).
const memoVersion = 1

// encodeMemo serializes the semantic subset of a Result: the verdict fields a
// downstream consumer acts on. The human-readable Trace is excluded — it is
// large, and the cross-process harness compares it via the full Result
// instead. Two Results agree on that subset exactly when their encodings are
// equal.
func encodeMemo(r claim.Result) []byte {
	var e store.Enc
	e.U8(memoVersion)
	flags := uint64(0)
	if r.Verified {
		flags |= 1
	}
	if r.Correct {
		flags |= 2
	}
	if r.Executable {
		flags |= 4
	}
	e.U64(flags)
	e.U64(uint64(r.Attempts))
	e.Str(r.Method)
	e.Str(r.Query)
	e.Str(r.Failure)
	return e.B
}

// decodeMemo reverses encodeMemo; a wrong version or malformed layout reads
// as a miss.
func decodeMemo(val []byte) (claim.Result, bool) {
	d := store.Dec{B: val}
	if d.U8() != memoVersion {
		return claim.Result{}, false
	}
	flags := d.U64()
	r := claim.Result{
		Verified:   flags&1 != 0,
		Correct:    flags&2 != 0,
		Executable: flags&4 != 0,
		Attempts:   int(d.U64()),
		Method:     d.Str(),
		Query:      d.Str(),
		Failure:    d.Str(),
	}
	return r, d.End() == nil
}
