package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The keyspace: every key begins with the prefix of its record family, so the
// families share one store without colliding. Each family's value carries its
// own version byte and field order, written with Enc and read with Dec.
const (
	// Completions holds temperature-0 model completions, written by llm.Cached.
	Completions = "c\x00"
	// Memos holds claim-level verdict memos, written by cedar.System.
	Memos = "m\x00"
	// Datasets holds ingested datasets, written by ingest.Registry.
	Datasets = "d\x00"
)

// Enc appends the fields of a record to B: unsigned integers and float64s
// little-endian, a string as its u32 length then its bytes. Every
// variable-length field is length-prefixed, so an encoding is injective over
// its field sequence, which is what lets the same bytes serve as a content key
// or a fingerprint's input.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)    { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(s string)  { e.U32(uint32(len(s))); e.B = append(e.B, s...) }

// Dec reads the fields Enc wrote, in the same order. Store bytes cross process
// boundaries, so no read goes past B: a short read sets Err and every later
// read returns zero values, leaving the caller one error to check.
type Dec struct {
	B   []byte
	Err error
	off int
}

// take returns the next n bytes, or nil after setting Err when fewer remain.
func (d *Dec) take(n int, what string) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > len(d.B)-d.off {
		d.Err = fmt.Errorf("short %s at offset %d", what, d.off)
		return nil
	}
	b := d.B[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U8() uint8 {
	if b := d.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Str() string {
	n := d.U32()
	return string(d.take(int(n), "string"))
}

// Count reads an element count and fails unless the bytes left could hold
// that many elements of at least size bytes each, so a corrupt count can
// neither loop nor allocate past the record's own length.
func (d *Dec) Count(what string, size int) int {
	n := int(d.U32())
	if d.Err == nil && n > (len(d.B)-d.off)/size {
		d.Err = fmt.Errorf("%d %s at offset %d, only %d bytes left", n, what, d.off, len(d.B)-d.off)
	}
	if d.Err != nil {
		return 0
	}
	return n
}

// End reports the first read error, or an error if bytes remain unread: a
// record is exactly its fields.
func (d *Dec) End() error {
	if d.Err == nil && d.off != len(d.B) {
		d.Err = fmt.Errorf("%d trailing bytes at offset %d", len(d.B)-d.off, d.off)
	}
	return d.Err
}
