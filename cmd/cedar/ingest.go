// ingest.go implements the "cedar ingest" subcommand: bring-your-own-data
// onboarding. It ingests a CSV/JSON file into a sqldb catalog, generates the
// verification surface, and (with -cache-dir) persists the dataset so later
// `cedar -dataset <name>` runs — and cedar-serve replicas sharing the
// directory — verify against it. The full journey is docs/DATA.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ingest"
	"repro/internal/sqldb"
	"repro/internal/store"
)

// ingestOptions carries the parsed ingest subcommand line.
type ingestOptions struct {
	Path       string
	Table      string
	Format     string
	SampleRows int
	MaxBytes   int64
	Seed       int64
	CacheDir   string
	AsJSON     bool
	ClaimsOut  string
}

// defineIngestFlags registers the subcommand's flags on fs, bound to the
// returned options. Split from runIngest so the doclint test can walk the
// registered FlagSet against the "cedar ingest" section of docs/CLI.md.
func defineIngestFlags(fs *flag.FlagSet) *ingestOptions {
	o := &ingestOptions{}
	fs.StringVar(&o.Table, "table", "", "catalog name to register the dataset under (default: file base name)")
	fs.StringVar(&o.Format, "format", "auto", "input format: csv, ndjson, json, or auto (sniff from extension and content)")
	fs.IntVar(&o.SampleRows, "sample-rows", 0, "keep at most N rows, reservoir-sampled deterministically (default 50000)")
	fs.Int64Var(&o.MaxBytes, "max-ingest-bytes", 0, "read at most N input bytes, stopping at the last complete record (default 32 MiB)")
	fs.Int64Var(&o.Seed, "seed", 1, "salt for the sampling reservoir; same (table, seed, content) reproduces the same sample")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persist the ingested catalog in this directory so cedar -dataset and cedar-serve -dataset can load it")
	fs.BoolVar(&o.AsJSON, "json", false, "emit the ingestion summary and generated surface as JSON")
	fs.StringVar(&o.ClaimsOut, "claims-out", "", "write the generated surface claims to this file, ready for cedar -claims")
	return o
}

// runIngest executes `cedar ingest [file] [flags]`; the data file may appear
// before or after the flags.
func runIngest(args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		args = append(args[1:], args[0]) // move the path behind the flags
	}
	fs := flag.NewFlagSet("cedar ingest", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cedar ingest <file.csv|file.json|file.ndjson> [flags]")
		fs.PrintDefaults()
	}
	o := defineIngestFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one data file is required")
	}
	o.Path = rest[0]

	res, err := ingest.File(o.Path, ingest.Options{
		Table:      o.Table,
		Format:     o.Format,
		SampleRows: o.SampleRows,
		MaxBytes:   o.MaxBytes,
		Seed:       o.Seed,
	})
	if err != nil {
		return err
	}

	// Registration exercises the same path the server uses: the table enters
	// a catalog and the surface generates from it (failing here, before any
	// persistence, if the data yields no verifiable claims).
	var st *store.Store
	if o.CacheDir != "" {
		st, err = store.Open(o.CacheDir)
		if err != nil {
			return err
		}
		defer st.Close()
	}
	db := sqldb.NewDatabase(res.Name)
	reg := ingest.NewRegistry(db, st, ingest.Options{})
	ds, err := reg.Add(res)
	if err != nil {
		return err
	}

	if o.ClaimsOut != "" {
		var out []claimInput
		for _, c := range ds.Surface.Claims {
			out = append(out, claimInput{ID: c.ID, Sentence: c.Sentence, Value: c.Value, Context: c.Context})
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.ClaimsOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d surface claims written to %s\n", len(out), o.ClaimsOut)
	}

	if o.AsJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Dataset *ingest.Result  `json:"dataset"`
			Surface *ingest.Surface `json:"surface"`
		}{res, ds.Surface})
	}
	fmt.Printf("ingested %s as table %q (%s)\n", o.Path, res.Name, res.Format)
	fmt.Printf("  rows: %d kept of %d scanned", res.RowsKept, res.RowsTotal)
	if res.Sampled {
		fmt.Printf(" (reservoir sample, seed %d)", res.SampleSeed)
	}
	if res.Truncated {
		fmt.Printf(" [input truncated at byte budget]")
	}
	fmt.Printf("\n  columns:\n")
	for _, c := range res.Columns {
		fmt.Printf("    %-24s %-7s", c.Name, c.Type)
		if c.Nulls > 0 {
			fmt.Printf(" (%d nulls)", c.Nulls)
		}
		fmt.Println()
	}
	fmt.Printf("  surface: %d query templates, %d claims", len(ds.Surface.Templates), len(ds.Surface.Claims))
	if ds.Surface.Entity != "" {
		fmt.Printf(" (entity column %q)", ds.Surface.Entity)
	}
	fmt.Printf("\n  fingerprint: %s\n", res.Fingerprint)
	if st != nil {
		fmt.Printf("persisted to %s; verify with: cedar -dataset %s -claims <file> -cache-dir %s\n",
			o.CacheDir, res.Name, o.CacheDir)
	} else {
		fmt.Println("not persisted (no -cache-dir); pass -cache-dir to make the dataset loadable later")
	}
	return nil
}
