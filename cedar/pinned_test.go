package cedar

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fee"
	"repro/internal/ingest"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/trace"
)

// The pinned cache directory (ROADMAP item 26): testdata/cachedir is a
// -cache-dir written by an earlier build — temperature-0 completions, verdict
// memos and one persisted dataset — and testdata/cachedir.json holds what
// that build computed: verdicts, fees and fingerprints. A change that moves a
// persisted byte or a fingerprint's input turns every warm cache cold, which
// shows nowhere else as an error; here it fails.
//
//	go test ./cedar -run TestStoreReadsPinnedCacheDir -update
//
// rewrites both from the current build, which only a deliberate format
// change (one that bumps a version or says that warm caches go cold) may do.

var updatePinned = flag.Bool("update", false, "rewrite testdata/cachedir and testdata/cachedir.json from this build")

const (
	pinnedDir  = "testdata/cachedir"
	pinnedFile = "testdata/cachedir.json"
	pinnedSeed = 26
	pinnedCSV  = "region,product,units,revenue,discounted,day\n" +
		"north,widget,12,1034.50,true,2024-01-05\n" +
		"south,gadget,7,812.25,false,2024-01-06\n" +
		"east,widget,31,2200.00,true,2024-02-11\n" +
		"west,sprocket,5,NA,false,2024-02-12\n" +
		"north,gadget,19,1500.75,true,2024-03-01\n"
)

// pinnedVerdict is the part of a claim's Result a verdict memo persists.
type pinnedVerdict struct {
	ID         string `json:"id"`
	Verified   bool   `json:"verified"`
	Correct    bool   `json:"correct"`
	Executable bool   `json:"executable"`
	Attempts   int    `json:"attempts"`
	Method     string `json:"method"`
	Query      string `json:"query"`
	Failure    string `json:"failure"`
}

// pinnedRun is what the fixture's writing run computed.
type pinnedRun struct {
	DatasetFingerprint string          `json:"dataset_fingerprint"`
	DBFingerprint      string          `json:"db_fingerprint"`
	ConfigFingerprint  string          `json:"config_fingerprint"`
	Calls              int             `json:"calls"`
	Fee                fee.Fee         `json:"fee"`
	Verdicts           []pinnedVerdict `json:"verdicts"`
}

// pinnedSystem stands up the fixture's System over dir: routing on (so the
// catalog fingerprint is part of the configuration's), statistics profiled
// by a store-less System (profiling traffic would otherwise fill the fixture
// with completions no eval run reads), and the sales dataset — ingested and
// persisted when write is set, restored from the store otherwise.
func pinnedSystem(t *testing.T, dir string, write bool, tracer *Tracer) (*System, *sqldb.Database, *ingest.Dataset) {
	t.Helper()
	bare, err := New(Options{Seed: pinnedSeed})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := Benchmark(BenchAggChecker, pinnedSeed+100)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.ProfileOn(docs[:6]); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{Seed: pinnedSeed, CacheDir: dir, Route: true, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.SetStats(bare.Stats()); err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDatabase("sales")
	reg := ingest.NewRegistry(db, sys.Store(), ingest.Options{})
	var ds *ingest.Dataset
	if write {
		ds, err = reg.Add(pinnedIngest(t))
	} else {
		ds, err = reg.LoadDataset("sales")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCatalog(db); err != nil {
		t.Fatal(err)
	}
	return sys, db, ds
}

// pinnedIngest ingests the fixture's CSV with this build.
func pinnedIngest(t *testing.T) *ingest.Result {
	t.Helper()
	res, err := ingest.Ingest(strings.NewReader(pinnedCSV), ingest.Options{Table: "sales", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pinnedClaims are the dataset's surface claims, true by construction, and
// a false twin of each of the first three (the value with a 1 appended).
func pinnedClaims(t *testing.T, ds *ingest.Dataset) []*Claim {
	t.Helper()
	var out []*Claim
	add := func(id, sentence, value, context string) {
		c, err := NewClaim(id, sentence, value, context)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	for _, sc := range ds.Surface.Claims {
		add(sc.ID, sc.Sentence, sc.Value, sc.Context)
	}
	for _, sc := range ds.Surface.Claims[:3] {
		add(sc.ID+"-false", strings.Replace(sc.Sentence, sc.Value, sc.Value+"1", 1), sc.Value+"1", sc.Context)
	}
	return out
}

func pinnedVerdicts(claims []*Claim) []pinnedVerdict {
	out := make([]pinnedVerdict, len(claims))
	for i, c := range claims {
		r := c.Result
		out[i] = pinnedVerdict{c.ID, r.Verified, r.Correct, r.Executable, r.Attempts, r.Method, r.Query, r.Failure}
	}
	return out
}

// TestStoreReadsPinnedCacheDir restores the pinned cache directory with this
// build: the dataset restores with its pinned fingerprint and this build
// ingests and records it as the fixture holds it, the database and
// configuration fingerprints equal the pinned ones, every claim's memo hits,
// no temperature-0 attempt is billed (each is a persisted hit replaying the
// pinned run's fee), and the verdicts equal the pinned ones.
func TestStoreReadsPinnedCacheDir(t *testing.T) {
	if *updatePinned {
		writePinnedCacheDir(t)
	}
	raw, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	var want pinnedRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// A run writes to its store, so it reads a copy of the fixture.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(pinnedDir)); err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer()
	sys, db, ds := pinnedSystem(t, dir, false, tracer)
	if got := ds.Info.Fingerprint; got != want.DatasetFingerprint {
		t.Errorf("restored dataset fingerprint %s, pinned %s", got, want.DatasetFingerprint)
	}
	// This build ingests the same CSV to the pinned fingerprint, and writes
	// the dataset record the fixture holds, byte for byte.
	res := pinnedIngest(t)
	if res.Fingerprint != want.DatasetFingerprint {
		t.Errorf("ingested dataset fingerprint %s, pinned %s", res.Fingerprint, want.DatasetFingerprint)
	}
	fresh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := ingest.NewRegistry(sqldb.NewDatabase("sales"), fresh, ingest.Options{}).Add(res); err != nil {
		t.Fatal(err)
	}
	key := []byte("d\x00sales")
	pinnedRec, _ := sys.Store().Get(key)
	if rec, _ := fresh.Get(key); !bytes.Equal(rec, pinnedRec) {
		t.Errorf("this build's dataset record (%d bytes) differs from the fixture's (%d bytes)", len(rec), len(pinnedRec))
	}
	dbFP, cfgFP := dbFingerprint(db), sys.configFingerprint()
	if got := hex.EncodeToString(dbFP[:]); got != want.DBFingerprint {
		t.Errorf("database fingerprint %s, pinned %s", got, want.DBFingerprint)
	}
	if got := hex.EncodeToString(cfgFP[:]); got != want.ConfigFingerprint {
		t.Errorf("configuration fingerprint %s, pinned %s", got, want.ConfigFingerprint)
	}

	claims := pinnedClaims(t, ds)
	rep, err := sys.VerifyClaims("sales", db, claims)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemoHits != len(claims) || rep.MemoMismatches != 0 {
		t.Errorf("memo hits %d and mismatches %d of %d claims; want every memo to hit", rep.MemoHits, rep.MemoMismatches, len(claims))
	}
	// Retries run at a positive temperature and are never persisted, so the
	// warm run pays exactly those again and nothing else.
	var replayed fee.Fee
	for _, sp := range tracer.Spans() {
		switch {
		case sp.Kind == trace.KindPersistHit:
			replayed += sp.Fee
		case sp.Kind == trace.KindAttempt && sp.Temperature == 0:
			t.Errorf("warm run billed a temperature-0 attempt the store should answer: %+v", sp.Key)
		}
	}
	if rep.PersistedHits+rep.Calls != want.Calls {
		t.Errorf("%d persisted hits + %d billed calls, pinned run made %d calls", rep.PersistedHits, rep.Calls, want.Calls)
	}
	if paid := fee.FromDollars(rep.Dollars); replayed+paid != want.Fee {
		t.Errorf("persisted hits replay %v and the run paid %v, pinned run paid %v", replayed, paid, want.Fee)
	}
	got := pinnedVerdicts(claims)
	if len(got) != len(want.Verdicts) {
		t.Fatalf("%d verdicts, pinned %d", len(got), len(want.Verdicts))
	}
	for i := range got {
		if got[i] != want.Verdicts[i] {
			t.Errorf("claim %d:\n got    %+v\n pinned %+v", i, got[i], want.Verdicts[i])
		}
	}
}

// writePinnedCacheDir regenerates the fixture: a cold run over an empty
// directory, whose store becomes testdata/cachedir and whose verdicts, fees
// and fingerprints become testdata/cachedir.json.
func writePinnedCacheDir(t *testing.T) {
	if err := os.RemoveAll(pinnedDir); err != nil {
		t.Fatal(err)
	}
	sys, db, ds := pinnedSystem(t, pinnedDir, true, nil)
	claims := pinnedClaims(t, ds)
	rep, err := sys.VerifyClaims("sales", db, claims)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PersistedHits != 0 || rep.MemoHits != 0 {
		t.Fatalf("cold run over an empty directory hit the store (%d completions, %d memos)", rep.PersistedHits, rep.MemoHits)
	}
	dbFP, cfgFP := dbFingerprint(db), sys.configFingerprint()
	pin := pinnedRun{
		DatasetFingerprint: ds.Info.Fingerprint,
		DBFingerprint:      hex.EncodeToString(dbFP[:]),
		ConfigFingerprint:  hex.EncodeToString(cfgFP[:]),
		Calls:              rep.Calls,
		Fee:                fee.FromDollars(rep.Dollars),
		Verdicts:           pinnedVerdicts(claims),
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(pin, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(pinnedDir)
	if err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += int(info.Size())
	}
	t.Logf("wrote %s (%d files, %d bytes) and %s", filepath.Clean(pinnedDir), len(entries), size, pinnedFile)
}
