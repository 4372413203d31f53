package ingest

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqldb"
)

// persist.go encodes ingested catalogs for internal/store. Each dataset is
// one record under the "d\x00" key prefix (completions use "c\x00", verdict
// memos "m\x00"). The store is append-only with last-write-wins semantics,
// so deletion overwrites the dataset's record with an empty value, the
// tombstone, and a later Add overwrites that. The codec is length-prefixed
// and versioned; a decoded table is bit-identical to the encoded one (column
// kinds are restored explicitly, not re-inferred), which is what makes
// cold-vs-warm verdicts reproduce.

const (
	datasetPrefix   = "d\x00"
	datasetCodecVer = 1
)

func datasetKey(name string) []byte {
	return []byte(datasetPrefix + lowerName(name))
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

// enc is a minimal append-only encoder: u8/u32/u64/f64 little-endian,
// strings length-prefixed with u32.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string)  { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// dec is the matching decoder; all methods report malformed input as errors
// rather than panicking, since store bytes cross process boundaries.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("ingest: corrupt dataset record: short %s at offset %d", what, d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and fails unless the bytes left could hold
// that many elements of at least size bytes each, so a corrupt count can
// neither loop nor allocate past the record's own length.
func (d *dec) count(what string, size int) int {
	n := int(d.u32())
	if d.err == nil && n > (len(d.b)-d.off)/size {
		d.err = fmt.Errorf("ingest: corrupt dataset record: %d %s at offset %d, only %d bytes left",
			n, what, d.off, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// encodeDataset serializes a Result (table + ingestion metadata).
func encodeDataset(r *Result) []byte {
	e := &enc{}
	e.u8(datasetCodecVer)
	e.str(r.Name)
	e.str(r.Format)
	e.u64(uint64(r.RowsTotal))
	e.u64(uint64(r.BytesRead))
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
	e.u8(flags)
	e.u64(uint64(r.SampleSeed))
	e.str(r.Fingerprint)
	e.u32(uint32(len(r.Columns)))
	for _, c := range r.Columns {
		e.str(c.Name)
		e.str(c.Type)
		e.u32(uint32(c.Nulls))
	}
	t := r.Table
	e.str(t.Name)
	e.u32(uint32(len(t.Columns)))
	for _, c := range t.Columns {
		e.str(c.Name)
		e.u8(uint8(c.Type))
	}
	e.u32(uint32(t.NumRows()))
	for r := 0; r < t.NumRows(); r++ {
		for c := range t.Columns {
			v := t.Cell(r, c)
			e.u8(uint8(v.Kind()))
			switch v.Kind() {
			case sqldb.KindInt:
				i, _ := v.AsInt()
				e.u64(uint64(i))
			case sqldb.KindFloat:
				f, _ := v.AsFloat()
				e.f64(f)
			case sqldb.KindText:
				e.str(v.Text())
			case sqldb.KindBool:
				if v.AsBool() {
					e.u8(1)
				} else {
					e.u8(0)
				}
			}
		}
	}
	return e.b
}

// decodeDataset restores a Result from its encoded form.
func decodeDataset(b []byte) (*Result, error) {
	d := &dec{b: b}
	if v := d.u8(); d.err == nil && v != datasetCodecVer {
		return nil, fmt.Errorf("ingest: dataset record version %d, want %d", v, datasetCodecVer)
	}
	r := &Result{}
	r.Name = d.str()
	r.Format = d.str()
	r.RowsTotal = int(d.u64())
	r.BytesRead = int64(d.u64())
	flags := d.u8()
	r.Sampled = flags&1 != 0
	r.Truncated = flags&2 != 0
	r.HeaderDetected = flags&4 != 0
	r.SampleSeed = int64(d.u64())
	r.Fingerprint = d.str()
	// Minimum encoded sizes: a column info is two strings and a u32, a table
	// column a string and a u8, and a row one kind byte per column.
	ncols := d.count("column infos", 12)
	for i := 0; i < ncols && d.err == nil; i++ {
		r.Columns = append(r.Columns, ColumnInfo{Name: d.str(), Type: d.str(), Nulls: int(d.u32())})
	}
	t := sqldb.NewTable(d.str())
	ntc := d.count("table columns", 5)
	for i := 0; i < ntc && d.err == nil; i++ {
		name := d.str()
		kind := sqldb.Kind(d.u8())
		t.Columns = append(t.Columns, sqldb.Column{Name: name, Type: kind})
	}
	nrows := d.count("rows", max(ntc, 1))
	if nrows > 0 && ntc == 0 {
		return nil, fmt.Errorf("ingest: corrupt dataset record: %d rows without columns", nrows)
	}
	row := make([]sqldb.Value, ntc)
	t.Grow(nrows)
	for i := 0; i < nrows && d.err == nil; i++ {
		for j := 0; j < ntc; j++ {
			switch sqldb.Kind(d.u8()) {
			case sqldb.KindNull:
				row[j] = sqldb.Null()
			case sqldb.KindInt:
				row[j] = sqldb.Int(int64(d.u64()))
			case sqldb.KindFloat:
				row[j] = sqldb.Float(d.f64())
			case sqldb.KindText:
				row[j] = sqldb.Text(d.str())
			case sqldb.KindBool:
				row[j] = sqldb.Bool(d.u8() == 1)
			default:
				d.fail("value kind")
			}
		}
		if d.err == nil {
			t.MustAppendRow(row...)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	r.Table = t
	r.RowsKept = t.NumRows()
	return r, nil
}
