package ingest

import (
	"fmt"

	"repro/internal/sqldb"
	"repro/internal/store"
)

// persist.go encodes ingested catalogs for internal/store. Each dataset is
// one record in the store.Datasets family. The store is append-only with
// last-write-wins semantics, so deletion overwrites the dataset's record with
// an empty value, the tombstone, and a later Add overwrites that. The record
// is versioned; a decoded table is bit-identical to the encoded one (column
// kinds are restored explicitly, not re-inferred), which is what makes
// cold-vs-warm verdicts reproduce.

const datasetCodecVer = 1

func datasetKey(name string) []byte {
	return []byte(store.Datasets + lowerName(name))
}

func lowerName(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// encodeDataset serializes a Result (table + ingestion metadata).
func encodeDataset(r *Result) []byte {
	e := &store.Enc{}
	e.U8(datasetCodecVer)
	e.Str(r.Name)
	e.Str(r.Format)
	e.U64(uint64(r.RowsTotal))
	e.U64(uint64(r.BytesRead))
	var flags uint8
	if r.Sampled {
		flags |= 1
	}
	if r.Truncated {
		flags |= 2
	}
	if r.HeaderDetected {
		flags |= 4
	}
	e.U8(flags)
	e.U64(uint64(r.SampleSeed))
	e.Str(r.Fingerprint)
	e.U32(uint32(len(r.Columns)))
	for _, c := range r.Columns {
		e.Str(c.Name)
		e.Str(c.Type)
		e.U32(uint32(c.Nulls))
	}
	t := r.Table
	e.Str(t.Name)
	e.U32(uint32(len(t.Columns)))
	for _, c := range t.Columns {
		e.Str(c.Name)
		e.U8(uint8(c.Type))
	}
	e.U32(uint32(t.NumRows()))
	for r := 0; r < t.NumRows(); r++ {
		for c := range t.Columns {
			v := t.Cell(r, c)
			e.U8(uint8(v.Kind()))
			switch v.Kind() {
			case sqldb.KindInt:
				i, _ := v.AsInt()
				e.U64(uint64(i))
			case sqldb.KindFloat:
				f, _ := v.AsFloat()
				e.F64(f)
			case sqldb.KindText:
				e.Str(v.Text())
			case sqldb.KindBool:
				if v.AsBool() {
					e.U8(1)
				} else {
					e.U8(0)
				}
			}
		}
	}
	return e.B
}

// decodeDataset restores a Result from its encoded form, which must hold
// nothing after the last row.
func decodeDataset(b []byte) (*Result, error) {
	d := &store.Dec{B: b}
	if v := d.U8(); d.Err == nil && v != datasetCodecVer {
		return nil, fmt.Errorf("ingest: dataset record version %d, want %d", v, datasetCodecVer)
	}
	r := &Result{}
	r.Name = d.Str()
	r.Format = d.Str()
	r.RowsTotal = int(d.U64())
	r.BytesRead = int64(d.U64())
	flags := d.U8()
	r.Sampled = flags&1 != 0
	r.Truncated = flags&2 != 0
	r.HeaderDetected = flags&4 != 0
	r.SampleSeed = int64(d.U64())
	r.Fingerprint = d.Str()
	// Minimum encoded sizes: a column info is two strings and a u32, a table
	// column a string and a u8, and a row one kind byte per column.
	ncols := d.Count("column infos", 12)
	for i := 0; i < ncols && d.Err == nil; i++ {
		r.Columns = append(r.Columns, ColumnInfo{Name: d.Str(), Type: d.Str(), Nulls: int(d.U32())})
	}
	t := sqldb.NewTable(d.Str())
	ntc := d.Count("table columns", 5)
	for i := 0; i < ntc && d.Err == nil; i++ {
		name := d.Str()
		kind := sqldb.Kind(d.U8())
		t.Columns = append(t.Columns, sqldb.Column{Name: name, Type: kind})
	}
	nrows := d.Count("rows", max(ntc, 1))
	if nrows > 0 && ntc == 0 {
		return nil, fmt.Errorf("ingest: corrupt dataset record: %d rows without columns", nrows)
	}
	row := make([]sqldb.Value, ntc)
	t.Grow(nrows)
	for i := 0; i < nrows && d.Err == nil; i++ {
		for j := 0; j < ntc; j++ {
			switch k := sqldb.Kind(d.U8()); k {
			case sqldb.KindNull:
				row[j] = sqldb.Null()
			case sqldb.KindInt:
				row[j] = sqldb.Int(int64(d.U64()))
			case sqldb.KindFloat:
				row[j] = sqldb.Float(d.F64())
			case sqldb.KindText:
				row[j] = sqldb.Text(d.Str())
			case sqldb.KindBool:
				row[j] = sqldb.Bool(d.U8() == 1)
			default:
				d.Err = fmt.Errorf("value kind %d in row %d", k, i)
			}
		}
		if d.Err == nil {
			t.MustAppendRow(row...)
		}
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("ingest: corrupt dataset record: %w", err)
	}
	r.Table = t
	r.RowsKept = t.NumRows()
	return r, nil
}
