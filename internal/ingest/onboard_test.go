package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// onboard_test.go measures what ingesting a table costs: allocations per
// row, the heap a sampled ingestion keeps, and the Go benchmark of the CSV
// path. The tests carry "Ingest" in their names so `make ingest` selects them.

// salesTableCSV is a CSV shaped like the repository benchmark's lib-bigtable
// input: an entity key, a six-way text column, an int, a two-decimal float, a
// bool and an ISO date per row, drawn from a seeded source.
func salesTableCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(1))
	teams := []string{"north", "south", "east", "west", "central", "coastal"}
	var b bytes.Buffer
	b.WriteString("name,team,units,revenue,discounted,day\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "acct-%05d,%s,%d,%.2f,%t,2024-%02d-%02d\n", i,
			teams[rng.Intn(len(teams))], rng.Intn(500), float64(rng.Intn(1_000_000))/100,
			rng.Intn(2) == 1, 1+rng.Intn(12), 1+rng.Intn(28))
	}
	return b.Bytes()
}

// TestIngestAllocCeiling holds a CSV ingestion to 40 % of the allocations
// per row it made when every row, failed parse, normalized date and
// fingerprinted cell allocated: 21.6 per row on this input. What is left
// is the string csv.Reader makes per record and the ingestion's fixed cost.
func TestIngestAllocCeiling(t *testing.T) {
	const rows, parentPerRow = 2000, 21.6
	in := salesTableCSV(rows)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Ingest(bytes.NewReader(in), Options{Table: "sales", Format: "csv"}); err != nil {
			t.Fatal(err)
		}
	})
	if perRow, ceiling := allocs/rows, 0.4*parentPerRow; perRow > ceiling {
		t.Errorf("%.2f allocations per row, ceiling %.2f", perRow, ceiling)
	}
}

// TestIngestSampledKeepsOnlyKeptRows samples 1,000 of 100,000 rows and
// checks that the catalog holds about what 1,000 rows need: their Values and
// the text of their records. Kept rows share slabs, so a slab that kept one
// original row alive would also pin the rows the reservoir replaced around
// it, and every record string they reference, about doubling the heap.
func TestIngestSampledKeepsOnlyKeptRows(t *testing.T) {
	const rows, keep, width = 100_000, 1000, 4
	note := strings.Repeat("x", 200)
	line := func(i int) string { return fmt.Sprintf("acct-%06d,%s,%d,2024-01-%02d\n", i, note, i%500, 1+i%28) }
	in := []byte("id,note,units,day\n")
	for i := 0; i < rows; i++ {
		in = append(in, line(i)...)
	}
	res, err := Ingest(bytes.NewReader(in), Options{Table: "sampled", SampleRows: keep, MaxBytes: int64(len(in))})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsKept != keep || res.RowsTotal != rows {
		t.Fatalf("kept %d of %d rows, want %d of %d", res.RowsKept, res.RowsTotal, keep, rows)
	}
	in = nil

	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(res)
	res = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&without)

	held := int64(with.HeapAlloc) - int64(without.HeapAlloc)
	perRow := width*32 + len(line(0)) // Values, and the record's text
	bound := int64(keep * perRow * 3 / 2)
	if held > bound {
		t.Errorf("a %d-row sample holds %d bytes, bound %d (1.5 × %d bytes per kept row)", keep, held, bound, perRow)
	}
	t.Logf("a %d-row sample holds %d bytes, bound %d", keep, held, bound)
}

var benchResult *Result

// BenchmarkIngestCSV ingests a 16,000-row CSV shaped like lib-bigtable's.
func BenchmarkIngestCSV(b *testing.B) {
	in := salesTableCSV(16000)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Ingest(bytes.NewReader(in), Options{Table: "sales", Format: "csv"})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}
