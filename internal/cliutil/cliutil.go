// Package cliutil holds the command-line plumbing shared by the cedar
// binaries: repeated-flag collection, trace export, and the one assembly,
// SystemFlags, through which cmd/cedar and cmd/cedar-serve build their
// database and stand up their System, so the same flags give byte-identical
// verification runs on both.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/cedar"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// CSVList collects repeated -csv flags so multi-table (join) databases can
// be loaded: -csv airlines.csv -csv safety.csv ...
type CSVList []string

// String implements flag.Value.
func (c *CSVList) String() string { return strings.Join(*c, ",") }

// Set implements flag.Value, appending one path per occurrence.
func (c *CSVList) Set(v string) error {
	*c = append(*c, v)
	return nil
}

// URLList collects repeated -replicas flags (replica base URLs for the
// cedar-serve coordinator): -replicas http://r1:8080 -replicas http://r2:8080
// Comma-separated values in one occurrence are split, so both
// "-replicas a,b" and "-replicas a -replicas b" work.
type URLList []string

// String implements flag.Value.
func (u *URLList) String() string { return strings.Join(*u, ",") }

// Set implements flag.Value, appending the URLs of one occurrence.
func (u *URLList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(part), "/"))
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			return fmt.Errorf("replica URL %q must include a scheme (http://host:port)", part)
		}
		*u = append(*u, part)
	}
	return nil
}

// TableName derives a table name from a CSV path: the file base name with
// the extension stripped.
func TableName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

// SystemFlags are the flags cedar and cedar-serve share: the database, the
// System's options and its profiling statistics. Both binaries stand their
// System up through Open, which is why a served request is bit-identical to
// the cedar run of the same flags.
type SystemFlags struct {
	CSVPaths   []string
	Datasets   []string
	TableName  string
	Target     float64
	Seed       int64
	Workers    int
	StatsPath  string
	Retries    int
	Timeout    time.Duration
	HedgeAfter time.Duration
	Breaker    int
	FaultRate  float64
	CacheDir   string
	Route      bool
}

// Register registers the shared flags on fs, bound to f, each defaulting to
// d's value: the binaries differ in -workers and in the resilience flags.
func (f *SystemFlags) Register(fs *flag.FlagSet, d SystemFlags) {
	*f = d
	fs.Var((*CSVList)(&f.CSVPaths), "csv", "CSV data table (header row first); repeat for multi-table databases")
	fs.Var((*CSVList)(&f.Datasets), "dataset", "ingested dataset to load from -cache-dir (see cedar ingest and docs/DATA.md); repeatable")
	fs.StringVar(&f.TableName, "table", d.TableName, "table name for a single CSV (default: file base name)")
	fs.Float64Var(&f.Target, "target", d.Target, "accuracy target in (0,1]")
	fs.Int64Var(&f.Seed, "seed", d.Seed, "random seed for the simulated models")
	fs.IntVar(&f.Workers, "workers", d.Workers, "concurrent claim verifications; results are identical for any value")
	fs.StringVar(&f.StatsPath, "stats", d.StatsPath, "profiling statistics JSON (from cedar-profile -o); skips built-in profiling")
	fs.IntVar(&f.Retries, "retries", d.Retries, "retry failed retryable model calls up to N additional times (capped backoff, seeded jitter)")
	fs.DurationVar(&f.Timeout, "timeout", d.Timeout, "per-call simulated deadline across retries (e.g. 30s); 0 disables")
	fs.DurationVar(&f.HedgeAfter, "hedge", d.HedgeAfter, "race a backup model call once the primary exceeds this simulated latency; 0 disables")
	fs.IntVar(&f.Breaker, "breaker", d.Breaker, "trip a per-model circuit breaker after N consecutive failures; 0 disables (order-dependent, see DESIGN.md §9)")
	fs.Float64Var(&f.FaultRate, "fault-rate", d.FaultRate, "inject deterministic transport faults at this per-attempt probability (chaos testing)")
	fs.StringVar(&f.CacheDir, "cache-dir", d.CacheDir, "persist temperature-0 completions, verdict memos and ingested datasets in this directory; repeated work answers at zero fee (DESIGN.md §11)")
	fs.BoolVar(&f.Route, "route", d.Route, "decompose compound claims and route each sub-claim to the best-matching table (DESIGN.md §16)")
}

// Name names the database the flags describe, without reading any data:
// -table, or else the first -csv's file base name, or else the first
// -dataset. -table names a single CSV's table; several CSVs name their
// tables by file. The name is also a run's default document ID, so every
// binary seeds identically for identical flags.
func (f *SystemFlags) Name() (string, error) {
	switch {
	case f.TableName != "" && len(f.CSVPaths) > 1:
		return "", fmt.Errorf("-table applies to a single -csv; multi-table databases name tables by file")
	case f.TableName != "":
		return f.TableName, nil
	case len(f.CSVPaths) > 0:
		return TableName(f.CSVPaths[0]), nil
	case len(f.Datasets) > 0:
		return f.Datasets[0], nil
	}
	return "", fmt.Errorf("one of -csv, -dataset, or -table is required")
}

// Database builds the database the claims verify against under Name: one
// table per -csv path, or else an empty catalog, which Open fills from the
// store.
func (f *SystemFlags) Database() (db *sqldb.Database, name string, err error) {
	if name, err = f.Name(); err != nil {
		return nil, "", err
	}
	db = sqldb.NewDatabase(name)
	for _, path := range f.CSVPaths {
		table := name
		if len(f.CSVPaths) > 1 {
			table = TableName(path)
		}
		r, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		t, err := sqldb.LoadCSV(table, r)
		r.Close()
		if err != nil {
			return nil, "", err
		}
		db.AddTable(t)
	}
	return db, name, nil
}

// System is a cedar.System stood up by Open, with the database it verifies
// against and the registry of that database's ingested datasets.
type System struct {
	*cedar.System
	DB       *sqldb.Database
	Name     string // the database's name
	Datasets *ingest.Registry
	tracer   *trace.Tracer
	restored []trace.Span // one ingest_sample span per -dataset restore
}

// Open stands up the System the flags describe over the database Database
// builds, in this order: cedar.New with the flags' options and tracer (nil:
// untraced); the -stats statistics, or else profiling on the built-in
// corpus, the first six aggchecker documents at seed+100; the -dataset
// restores, through the System's own store; with -route, the routing
// catalog over the whole database. opts are the registry's defaults for
// later ingestions. Close the System when done.
func (f *SystemFlags) Open(tracer *trace.Tracer, opts ingest.Options) (*System, error) {
	if len(f.Datasets) > 0 && f.CacheDir == "" {
		return nil, fmt.Errorf("-dataset requires -cache-dir (datasets are loaded from the persistent store)")
	}
	db, name, err := f.Database()
	if err != nil {
		return nil, err
	}
	sys, err := cedar.New(cedar.Options{
		Seed:             f.Seed,
		AccuracyTarget:   f.Target,
		Workers:          f.Workers,
		Retries:          f.Retries,
		Timeout:          f.Timeout,
		HedgeAfter:       f.HedgeAfter,
		BreakerThreshold: f.Breaker,
		FaultRate:        f.FaultRate,
		CacheDir:         f.CacheDir,
		Route:            f.Route,
		Tracer:           tracer,
	})
	if err != nil {
		return nil, err
	}
	s := &System{System: sys, DB: db, Name: name, Datasets: ingest.NewRegistry(db, sys.Store(), opts), tracer: tracer}
	if err := s.setUp(f); err != nil {
		sys.Close()
		return nil, err
	}
	return s, nil
}

// setUp is Open's work after cedar.New.
func (s *System) setUp(f *SystemFlags) error {
	if f.StatsPath != "" {
		stats, err := profile.LoadStats(f.StatsPath)
		if err != nil {
			return err
		}
		if err := s.SetStats(stats); err != nil {
			return err
		}
	} else {
		docs, err := cedar.Benchmark(cedar.BenchAggChecker, f.Seed+100)
		if err != nil {
			return err
		}
		if err := s.ProfileOn(docs[:6]); err != nil {
			return err
		}
	}
	for _, name := range f.Datasets {
		ds, err := s.Datasets.LoadDataset(name)
		if err != nil {
			return err
		}
		s.restored = append(s.restored, trace.Span{
			Key:    trace.Key{Doc: s.Name, Method: "ingest"},
			Kind:   trace.KindIngestSample,
			Detail: ds.Info.SampleDetail(),
		})
	}
	if f.Route {
		return s.SetCatalog(s.DB)
	}
	return nil
}

// Run verifies claims as one cedar run: one document named for the
// database, through VerifyClaims, as a served request carrying the same
// claims is verified. A run starts its trace afresh, so the restores'
// ingest_sample spans are recorded into it afterwards.
func (s *System) Run(claims []*cedar.Claim) (cedar.Report, error) {
	rep, err := s.VerifyClaims(s.Name, s.DB, claims)
	if err == nil {
		for _, sp := range s.restored {
			s.tracer.Record(sp)
		}
	}
	return rep, err
}

// ExportTrace implements the -trace and -trace-summary flags: it writes the
// tracer's spans as sorted JSONL to path when path is set, and prints the
// manifest and the per-method/per-model rollups to stderr when summary is
// set. A nil tracer (neither flag given) exports nothing.
func ExportTrace(tracer *trace.Tracer, path string, summary bool, m trace.Manifest) error {
	if tracer == nil {
		return nil
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d spans)\n", path, tracer.Len())
	}
	if summary {
		fmt.Fprintf(os.Stderr, "manifest: %s\n%s", m.JSON(), tracer.Summary().Table())
	}
	return nil
}
