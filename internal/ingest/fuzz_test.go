package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sqldb"
)

// classifyAllParsers is classify as it was before it looked at a cell's bytes
// first: every parser tried on every cell. It is the oracle FuzzClassify
// holds the shape checks to.
func classifyAllParsers(raw string) (sqldb.Value, ColType) {
	t := strings.TrimSpace(raw)
	if nullTokens[strings.ToLower(t)] {
		return sqldb.Null(), ColUnknown
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return sqldb.Int(i), ColInt
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		if !strings.ContainsAny(t, "iI") {
			return sqldb.Float(f), ColFloat
		}
	}
	switch strings.ToLower(t) {
	case "true", "false":
		return sqldb.Bool(strings.ToLower(t) == "true"), ColBool
	}
	for _, layout := range dateLayouts {
		if d, err := time.Parse(layout, t); err == nil {
			return sqldb.Text(d.Format("2006-01-02")), ColDate
		}
	}
	return sqldb.Text(t), ColString
}

// referenceTableFingerprint is tableFingerprint as it was written with fmt:
// one Fprintf into the hash per line. The buffered version must hash the
// same bytes, so every fingerprint ever persisted or documented still holds.
func referenceTableFingerprint(t *sqldb.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "table|%s|%d|%d\n", strings.ToLower(t.Name), len(t.Columns), len(t.Rows))
	for _, c := range t.Columns {
		fmt.Fprintf(h, "col|%s|%d\n", strings.ToLower(c.Name), int(c.Type))
	}
	for _, row := range t.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%d|%s\n", int(v.Kind()), v.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// FuzzClassify holds classify to the all-parsers oracle: a shape check may
// only skip a parser that would have failed, so value and type must agree on
// every input.
func FuzzClassify(f *testing.F) {
	day := time.Date(2024, time.March, 5, 0, 0, 0, 0, time.UTC)
	for _, layout := range dateLayouts {
		f.Add(day.Format(layout))
		f.Add(strings.ToUpper(day.Format(layout)))
		f.Add(strings.ReplaceAll(day.Format(layout), " ", "   "))
	}
	for tok := range nullTokens {
		f.Add(tok)
		f.Add(strings.ToUpper(tok))
	}
	for _, s := range []string{
		"1e3", "+5", "-5", "Inf", "-inf", "+Infinity", "0x1p4", "1_000", ".5", "5.", "-.5e-3",
		"9223372036854775808", "1e999", "  42  ", "true", "FALSE", "fal\u017fe", "+", "-", ".",
		"acct-070000", "2024-13-40", "12/31/1999", "1999/12/31", "31 Dec 1999", "Dec 31, 1999",
		"Dec 31,1999", "December 31, 1999", "2 Jan 20060", "\u0130nf", "\u212aan",
		// The gates in front of the parsers: ISO shape without four digits
		// ("+123" is four bytes, and time.Parse rejects it), leap days, year
		// zero, short or padded fields, digits outside ASCII, exponent and
		// hex-exponent signs, and the edges of int64.
		"+123-01-02", "2024-02-29", "2023-02-29", "0000-01-01", "2024-1-05", "2024-01-05 ",
		"\uff12\uff10\uff12\uff14-01-05", "\uff11\uff12", "1e5", "1e-5", "0x1p-4", "-0", "00012",
		"9223372036854775807", "-9223372036854775809", "Null", "n/A", "TRUE",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, gotType := classify(raw)
		want, wantType := classifyAllParsers(raw)
		// NaN never reaches here as a float (its spellings are null tokens
		// or fail to parse), so == on the values is exact.
		if got != want || gotType != wantType {
			t.Fatalf("classify(%q) = %#v, %v; all parsers give %#v, %v", raw, got, gotType, want, wantType)
		}
	})
}

// FuzzTypeInference throws adversarial CSV/JSON at the full ingestion path
// and checks the invariants that matter downstream: no panics, every kept
// row matches the final column set, inferred column types agree with the
// stored sqldb kinds, and re-ingesting identical bytes reproduces the same
// fingerprint (the determinism gates depend on that), and the column image a
// catalog builds from the table is bit-equal to its rows.
func FuzzTypeInference(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("\xEF\xBB\xBFa,b\n1,2,3\n4\n")
	f.Add("x\n1\n2.5\nNaN\ntrue\n2024-01-02\n")
	f.Add(`{"a":1}` + "\n" + `{"b":"x","a":2.5}` + "\n")
	f.Add(`[{"k":null},{"k":[1,2]},{"k":{"n":1}}]`)
	f.Add("col with space,\"quoted,comma\"\n\"multi\nline\",7\n")
	f.Add(strings.Repeat("a", 1<<16) + ",b\n1,2\n")
	f.Add("a,a,A\n1,2,3\n")
	f.Add("{\"\\u0000\":1}\n")
	f.Add("1e308,1e309,-0\n")
	f.Fuzz(func(t *testing.T, data string) {
		for _, format := range []string{"auto", "csv", "ndjson", "json"} {
			res, err := Ingest(strings.NewReader(data), Options{
				Table:      "fuzz",
				Format:     format,
				SampleRows: 64,
				MaxBytes:   1 << 16,
			})
			if err != nil {
				continue
			}
			if res.Table == nil || len(res.Columns) == 0 {
				t.Fatalf("format %s: nil table without error", format)
			}
			if len(res.Columns) != len(res.Table.Columns) {
				t.Fatalf("format %s: %d infos vs %d columns", format, len(res.Columns), len(res.Table.Columns))
			}
			for _, row := range res.Table.Rows {
				if len(row) != len(res.Table.Columns) {
					t.Fatalf("format %s: row width %d, want %d", format, len(row), len(res.Table.Columns))
				}
				for i, v := range row {
					if v.IsNull() {
						continue
					}
					if want := res.Table.Columns[i].Type; v.Kind() != want {
						// Mixed columns widen to TEXT storage, but every
						// stored value must then be stringly classified.
						t.Fatalf("format %s: col %s value kind %v under declared %v",
							format, res.Table.Columns[i].Name, v.Kind(), want)
					}
				}
			}
			if res.RowsKept > 64 {
				t.Fatalf("format %s: reservoir overflowed: %d rows", format, res.RowsKept)
			}
			again, err := Ingest(strings.NewReader(data), Options{
				Table: "fuzz", Format: format, SampleRows: 64, MaxBytes: 1 << 16,
			})
			if err != nil {
				t.Fatalf("format %s: second ingest failed after first succeeded: %v", format, err)
			}
			if again.Fingerprint != res.Fingerprint {
				t.Fatalf("format %s: re-ingest fingerprint drifted", format)
			}
			if ref := referenceTableFingerprint(res.Table); res.Fingerprint != ref {
				t.Fatalf("format %s: fingerprint %s, the fmt reference hashes %s", format, res.Fingerprint, ref)
			}
			// A decoded record must reproduce the catalog bit-identically.
			dec, err := decodeDataset(encodeDataset(res))
			if err != nil {
				t.Fatalf("format %s: codec: %v", format, err)
			}
			if tableFingerprint(dec.Table) != res.Fingerprint {
				t.Fatalf("format %s: codec round-trip changed the table", format)
			}
			// Registering the table builds its column image; a vectorized
			// SELECT * (ExecVec never falls back) reads every image cell.
			db := sqldb.NewDatabase("fuzz")
			db.AddTable(res.Table)
			stmt, err := sqldb.Parse("SELECT * FROM fuzz")
			if err != nil {
				t.Fatal(err)
			}
			scan, err := sqldb.ExecVec(db, stmt)
			if err != nil || len(scan.Rows) != len(res.Table.Rows) {
				t.Fatalf("format %s: vectorized scan: %d rows, err %v", format, len(scan.Rows), err)
			}
			for i, row := range res.Table.Rows {
				for c, want := range row {
					if got := scan.Rows[i][c]; got != want {
						t.Fatalf("format %s: col %s row %d: image holds %#v, Rows hold %#v",
							format, res.Table.Columns[c].Name, i, got, want)
					}
				}
			}
		}
	})
}

// FuzzDatasetCodec hands the same bytes to both ends of the dataset codec.
// As a stored record they must decode or fail without panicking, and never
// into more rows than the record has bytes; as an upload, any ingestion that
// succeeds must come back from its record unchanged.
func FuzzDatasetCodec(f *testing.F) {
	res, err := Ingest(strings.NewReader(salesCSV), Options{Table: "sales", Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	rec := encodeDataset(res)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add(countedRecord(0, 50_000_000))
	f.Add(countedRecord(1, 1<<32-1))
	f.Add(encodeManifest([]string{"sales", "pairs"}))
	f.Add([]byte(salesCSV))
	f.Add([]byte(`[{"a":1,"b":"x"},{"a":2.5}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeDataset(data); err == nil && len(r.Table.Rows) > len(data) {
			t.Fatalf("a %d-byte record decoded into %d rows", len(data), len(r.Table.Rows))
		}
		if names, err := decodeManifest(data); err == nil && len(names) > len(data) {
			t.Fatalf("a %d-byte manifest decoded into %d names", len(data), len(names))
		}
		res, err := Ingest(bytes.NewReader(data), Options{Table: "fuzz", SampleRows: 64, MaxBytes: 1 << 16})
		if err != nil {
			return
		}
		rec := encodeDataset(res)
		got, err := decodeDataset(rec)
		if err != nil {
			t.Fatalf("decoding an encoded ingestion: %v", err)
		}
		if again := encodeDataset(got); !bytes.Equal(again, rec) {
			t.Fatal("a decoded record re-encodes to different bytes")
		}
		if got.RowsKept != res.RowsKept || tableFingerprint(got.Table) != res.Fingerprint {
			t.Fatalf("decoded %d rows fingerprinting %s, ingested %d rows fingerprinting %s",
				got.RowsKept, tableFingerprint(got.Table), res.RowsKept, res.Fingerprint)
		}
	})
}
