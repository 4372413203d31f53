package cedar

import (
	"testing"

	"repro/internal/claim"
)

// The cross-process contract itself (cold populates, warm reproduces at a
// lower fee, DESIGN.md §11) is the store axis of cmd/cedar-serve's
// TestIdentityMatrix. What stays here is the memo bookkeeping around it.

// storeRunResult captures what one run of the memo tests reports.
type storeRunResult struct {
	report  Report
	results []claim.Result // all claims, doc-major order
}

// storeRun builds a fresh System over cacheDir, profiles it, verifies a clone
// of evalDocs, and closes it — one "process" of the cross-process contract.
func storeRun(t *testing.T, cacheDir string, profDocs, evalDocs []*Document) storeRunResult {
	t.Helper()
	sys, err := New(Options{Seed: 404, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := sys.ProfileOn(claim.CloneDocuments(profDocs)); err != nil {
		t.Fatal(err)
	}
	docs := claim.CloneDocuments(evalDocs)
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	var results []claim.Result
	for _, d := range docs {
		for _, c := range d.Claims {
			results = append(results, c.Result)
		}
	}
	return storeRunResult{report: rep, results: results}
}

// assertSameResults compares full claim results — verdict, method, attempts,
// failure class, and the human-readable Trace, byte for byte.
func assertSameResults(t *testing.T, label string, want, got []claim.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: claim %d diverged:\n want %+v\n  got %+v", label, i, want[i], got[i])
			return
		}
	}
}

// TestMemoMismatchSurfaces: a corrupted memo must be detected, counted,
// overwritten — and must never change the fresh verdict.
func TestMemoMismatchSurfaces(t *testing.T) {
	docs, err := Benchmark(BenchAggChecker, 404)
	if err != nil {
		t.Fatal(err)
	}
	profDocs, evalDocs := docs[:8], docs[8:10]
	dir := t.TempDir()

	cold := storeRun(t, dir, profDocs, evalDocs)

	// Corrupt every memo in place: flip the verdict bits of each stored memo
	// through a System handle on the same directory.
	sys, err := New(Options{Seed: 404, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(claim.CloneDocuments(profDocs)); err != nil {
		t.Fatal(err)
	}
	cfgFP := sys.configFingerprint()
	flipped := 0
	for _, d := range evalDocs {
		dbFP := dbFingerprint(d.Data)
		for i, c := range d.Claims {
			key := memoKey(dbFP, cfgFP, d.ID, i, c)
			val, ok := sys.store.Get(key)
			if !ok {
				t.Fatalf("no memo for %s/%d", d.ID, i)
			}
			memo, ok := decodeMemo(val)
			if !ok {
				t.Fatalf("memo for %s/%d undecodable", d.ID, i)
			}
			memo.Correct = !memo.Correct
			memo.Method = "tampered"
			if err := sys.store.Put(key, encodeMemo(memo)); err != nil {
				t.Fatal(err)
			}
			flipped++
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	warm := storeRun(t, dir, profDocs, evalDocs)
	assertSameResults(t, "verdicts despite tampered memos", cold.results, warm.results)
	if warm.report.MemoMismatches != flipped {
		t.Errorf("mismatches = %d, want %d", warm.report.MemoMismatches, flipped)
	}
	if warm.report.MemoHits != 0 {
		t.Errorf("memo hits = %d against all-tampered memos", warm.report.MemoHits)
	}

	// The mismatch pass overwrote the memos, so a third run is clean again.
	again := storeRun(t, dir, profDocs, evalDocs)
	if again.report.MemoMismatches != 0 || again.report.MemoHits != again.report.Claims {
		t.Errorf("after overwrite: hits=%d mismatches=%d of %d claims",
			again.report.MemoHits, again.report.MemoMismatches, again.report.Claims)
	}
}
