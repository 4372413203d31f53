package cedar

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/claim"
	"repro/internal/route"
	"repro/internal/sqldb"
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

// memoPrefix namespaces verdict memos in the shared store (completions use
// "c\x00"; see internal/llm).
const memoPrefix = "m\x00"

// fields accumulates length-prefixed values so every fingerprint is injective
// over its field sequence; sum digests the accumulated bytes.
type fields struct{ buf []byte }

func newFields() *fields { return &fields{} }

func (f *fields) str(s string) *fields {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	f.buf = append(f.buf, n[:]...)
	f.buf = append(f.buf, s...)
	return f
}

func (f *fields) u64(v uint64) *fields {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	f.buf = append(f.buf, n[:]...)
	return f
}

func (f *fields) f64(v float64) *fields {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], math.Float64bits(v))
	f.buf = append(f.buf, n[:]...)
	return f
}

func (f *fields) sum() [32]byte { return sha256.Sum256(f.buf) }

// dbFingerprint digests a database's full identity: name, table order,
// schema (column names and inferred types), and every row value. Two
// databases with the same fingerprint present identical data to every SQL
// query the verifier can generate.
func dbFingerprint(db *sqldb.Database) [32]byte {
	f := newFields()
	f.str(db.Name)
	tables := db.Tables()
	f.u64(uint64(len(tables)))
	for _, t := range tables {
		f.str(t.Name)
		cols := t.Schema()
		f.u64(uint64(len(cols)))
		for _, c := range cols {
			f.str(c.Name)
			f.u64(uint64(c.Type))
		}
		f.u64(uint64(t.NumRows()))
		for r := 0; r < t.NumRows(); r++ {
			for c := range cols {
				f.str(t.Cell(r, c).String())
			}
		}
	}
	return f.sum()
}

// configFingerprint digests every option that can change a verdict, plus the
// planned schedule and the code version. Workers is deliberately excluded —
// the determinism contract says it must not affect verdicts — as are
// CacheDir/CacheResponses themselves (the store must be transparent) and the
// Tracer (observability only).
func (s *System) configFingerprint() [32]byte {
	o := s.opts
	f := newFields()
	f.u64(verdictCodeVersion)
	f.u64(uint64(o.Seed))
	f.f64(o.AccuracyTarget)
	f.f64(o.CostBudgetPerClaim)
	f.u64(0) // the retired MaxTries option, always 0: keeps existing verdict memos' keys
	f.u64(uint64(o.Retries))
	f.u64(uint64(o.Timeout))
	f.u64(uint64(o.HedgeAfter))
	f.u64(uint64(o.BreakerThreshold))
	f.f64(o.FaultRate)
	f.str(s.Schedule())
	// Routing fields participate only when routing is on, so every
	// fingerprint computed before routing existed — and every run with
	// routing off — keeps its exact pre-routing key material.
	if o.Route {
		f.str("route")
		f.u64(uint64(o.RouteTopK))
		f.f64(route.DefaultFee.Dollars())
		f.f64(route.DefaultAccuracy)
		f.buf = append(f.buf, s.catalogFP...)
	}
	return f.sum()
}

// memoKey builds the store key of one claim's verdict memo. The claim's
// document ID and index participate because verdicts genuinely depend on them:
// every attempt's randomness is split off (Seed, docID, claimIndex, method,
// try), so the same sentence in a different position may legitimately verify
// differently.
func memoKey(dbFP, cfgFP [32]byte, docID string, claimIdx int, c *claim.Claim) []byte {
	f := newFields()
	f.buf = append(f.buf, memoPrefix...)
	f.buf = append(f.buf, dbFP[:]...)
	f.buf = append(f.buf, cfgFP[:]...)
	f.str(docID)
	f.u64(uint64(claimIdx))
	f.str(c.Sentence)
	f.str(c.Value)
	f.str(c.Context)
	return f.buf
}

// memoVersion tags the on-disk memo value encoding (distinct from
// verdictCodeVersion, which is about semantics and lives in the key).
const memoVersion = 1

// encodeMemo serializes the semantic subset of a Result: the verdict fields a
// downstream consumer acts on. The human-readable Trace is excluded — it is
// large, and the cross-process harness compares it via the full Result
// instead.
func encodeMemo(r claim.Result) []byte {
	f := newFields()
	f.buf = append(f.buf, memoVersion)
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
	f.u64(flags)
	f.u64(uint64(r.Attempts))
	f.str(r.Method)
	f.str(r.Query)
	f.str(r.Failure)
	return f.buf
}

// decodeMemo reverses encodeMemo; a wrong version or malformed layout reads
// as a miss.
func decodeMemo(val []byte) (claim.Result, bool) {
	if len(val) < 1 || val[0] != memoVersion {
		return claim.Result{}, false
	}
	buf := val[1:]
	u64 := func() (uint64, bool) {
		if len(buf) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v, true
	}
	str := func() (string, bool) {
		if len(buf) < 4 {
			return "", false
		}
		n := binary.LittleEndian.Uint32(buf)
		if uint64(n) > uint64(len(buf)-4) {
			return "", false
		}
		s := string(buf[4 : 4+n])
		buf = buf[4+n:]
		return s, true
	}
	flags, ok1 := u64()
	attempts, ok2 := u64()
	method, ok3 := str()
	query, ok4 := str()
	failure, ok5 := str()
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || len(buf) != 0 {
		return claim.Result{}, false
	}
	return claim.Result{
		Verified:   flags&1 != 0,
		Correct:    flags&2 != 0,
		Executable: flags&4 != 0,
		Attempts:   int(attempts),
		Method:     method,
		Query:      query,
		Failure:    failure,
	}, true
}

// memoEqual compares the semantic subset encodeMemo persists.
func memoEqual(a, b claim.Result) bool {
	return a.Verified == b.Verified &&
		a.Correct == b.Correct &&
		a.Executable == b.Executable &&
		a.Attempts == b.Attempts &&
		a.Method == b.Method &&
		a.Query == b.Query &&
		a.Failure == b.Failure
}
