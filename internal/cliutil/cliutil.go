// Package cliutil holds the small pieces of command-line plumbing shared by
// the cedar binaries — repeated-flag collection, CSV database loading and
// trace export — so cmd/cedar and cmd/cedar-serve build byte-identical
// databases (and therefore byte-identical verification runs) from the same
// flags.
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

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

// LoadDatabase builds the relational database the claims verify against:
// one table per CSV path. tableName overrides the single-CSV table name
// (and errors with multiple paths, which always name tables by file). The
// returned dbName — the table name or the first file's base name — is also
// the default document ID of a verification run, so both binaries seed
// identically for identical flags.
func LoadDatabase(paths []string, tableName string) (db *sqldb.Database, dbName string, err error) {
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("no CSV tables given")
	}
	if tableName != "" && len(paths) > 1 {
		return nil, "", fmt.Errorf("-table applies to a single -csv; multi-table databases name tables by file")
	}
	dbName = tableName
	if dbName == "" {
		dbName = TableName(paths[0])
	}
	db = sqldb.NewDatabase(dbName)
	for _, path := range paths {
		name := tableName
		if name == "" || len(paths) > 1 {
			name = TableName(path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		table, err := sqldb.LoadCSV(name, f)
		f.Close()
		if err != nil {
			return nil, "", err
		}
		db.AddTable(table)
	}
	return db, dbName, nil
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
