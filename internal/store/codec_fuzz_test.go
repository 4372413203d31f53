package store_test

import (
	"bytes"
	"math"
	"testing"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/ingest"
	"repro/internal/llm"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/trace"
)

// stubClient answers every request with one fixed completion.
type stubClient struct{}

func (stubClient) Complete(llm.Request) (llm.Response, error) {
	return llm.Response{Content: "SELECT 1", Usage: llm.Usage{PromptTokens: 7, CompletionTokens: 2}}, nil
}

// families holds one writer of each record family over a live store, and the
// key each one wrote, so a fuzz input can be stored in its place and read back
// by the family's own reader.
type families struct {
	st       *store.Store // completions and the dataset
	req      llm.Request
	complete []byte // the completion key req fills

	sys  *cedar.System // memos, in sys.Store()
	doc  *claim.Document
	memo []byte // the memo key doc's claim fills
}

func newFamilies(f *testing.F) *families {
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	fam := &families{st: st, req: llm.Request{
		Model:    llm.ModelGPT35,
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "count the rows"}},
		Attempt:  trace.Key{Doc: "d", Claim: 0, Method: "m", Try: 1},
	}}
	if _, err := (&llm.Cached{Client: stubClient{}, Persist: st}).Complete(fam.req); err != nil {
		f.Fatal(err)
	}
	res, err := ingest.Ingest(bytes.NewReader([]byte("region,units\nnorth,12\nsouth,7\n")), ingest.Options{Table: "sales"})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ingest.NewRegistry(sqldb.NewDatabase("sales"), st, ingest.Options{}).Add(res); err != nil {
		f.Fatal(err)
	}

	fam.sys, err = cedar.New(cedar.Options{Seed: 1, CacheDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { fam.sys.Close() })
	docs, err := cedar.Benchmark(cedar.BenchAggChecker, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := fam.sys.ProfileOn(docs[:2]); err != nil {
		f.Fatal(err)
	}
	fam.doc = claim.CloneDocuments(docs[2:3])[0]
	fam.doc.Claims = fam.doc.Claims[:1]
	if _, err := fam.sys.Verify(claim.CloneDocuments([]*claim.Document{fam.doc})); err != nil {
		f.Fatal(err)
	}
	fam.complete = []byte(only(f, st.KeysWithPrefix(store.Completions)))
	fam.memo = []byte(only(f, fam.sys.Store().KeysWithPrefix(store.Memos)))
	return fam
}

func only(f *testing.F, keys []string) string {
	if len(keys) != 1 {
		f.Fatalf("%d keys where the writer stored one", len(keys))
	}
	return keys[0]
}

// seeds are one stored record of each family.
func (fam *families) seeds(f *testing.F) [][]byte {
	var out [][]byte
	for _, k := range [][]byte{fam.complete, []byte(store.Datasets + "sales")} {
		v, ok := fam.st.Get(k)
		if !ok {
			f.Fatalf("no record under %q", k)
		}
		out = append(out, v)
	}
	v, ok := fam.sys.Store().Get(fam.memo)
	if !ok {
		f.Fatal("no memo record")
	}
	return append(out, v)
}

// FuzzRecordCodec holds the store's record codec to its two promises. Any
// field sequence Enc writes reads back equal through Dec, with nothing left
// over. And no bytes make Dec, or the completion, dataset and memo readers
// built on it, panic: the fuzz input is stored in place of each family's
// record and read back by that family's own reader. A memo only ever
// validates, so no memo bytes may change the verdict of the claim it is
// stored under.
func FuzzRecordCodec(f *testing.F) {
	fam := newFamilies(f)
	for _, rec := range fam.seeds(f) {
		f.Add(rec)
	}
	ref, err := fam.verify()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)

		d := store.Dec{B: data}
		d.Count("elements", 1+int(d.U8()))
		_, _, _ = d.Str(), d.F64(), d.End()

		if err := fam.st.Put(fam.complete, data); err != nil {
			t.Fatal(err)
		}
		if _, err := (&llm.Cached{Client: stubClient{}, Persist: fam.st}).Complete(fam.req); err != nil {
			t.Fatal(err)
		}
		if err := fam.st.Put([]byte(store.Datasets+"fuzz"), data); err != nil {
			t.Fatal(err)
		}
		_, _ = ingest.NewRegistry(sqldb.NewDatabase("fuzz"), fam.st, ingest.Options{}).LoadDataset("fuzz")
		if err := fam.sys.Store().Put(fam.memo, data); err != nil {
			t.Fatal(err)
		}
		got, err := fam.verify()
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("memo bytes %x changed a verdict:\n got  %+v\n want %+v", data, got, ref)
		}
	})
}

// verify runs the families' claim through its System, which checks the
// claim's fresh verdict against the stored memo.
func (fam *families) verify() (claim.Result, error) {
	docs := claim.CloneDocuments([]*claim.Document{fam.doc})
	_, err := fam.sys.Verify(docs)
	return docs[0].Claims[0].Result, err
}

// roundTrip reads data as a field program, each byte choosing the next field
// and the bytes after it its value, writes the fields with Enc and reads them
// back with Dec.
func roundTrip(t *testing.T, data []byte) {
	type field struct {
		op byte
		u  uint64
		s  string
	}
	var fields []field
	for i := 0; i < len(data); {
		op := data[i] % 5
		i++
		var v [8]byte
		n := copy(v[:], data[i:])
		u := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
		fl := field{op: op}
		switch op {
		case 0:
			fl.u, i = u&0xff, i+min(n, 1)
		case 1:
			fl.u, i = u&0xffffffff, i+min(n, 4)
		case 2, 3:
			fl.u, i = u, i+n
		case 4:
			l := min(int(u&0x1f), len(data)-i)
			fl.s, i = string(data[i:i+l]), i+l
		}
		fields = append(fields, fl)
	}
	var e store.Enc
	for _, fl := range fields {
		switch fl.op {
		case 0:
			e.U8(uint8(fl.u))
		case 1:
			e.U32(uint32(fl.u))
		case 2:
			e.U64(fl.u)
		case 3:
			e.F64(math.Float64frombits(fl.u))
		case 4:
			e.Str(fl.s)
		}
	}
	d := store.Dec{B: e.B}
	for i, fl := range fields {
		var got field
		got.op = fl.op
		switch fl.op {
		case 0:
			got.u = uint64(d.U8())
		case 1:
			got.u = uint64(d.U32())
		case 2:
			got.u = d.U64()
		case 3:
			got.u = math.Float64bits(d.F64())
		case 4:
			got.s = d.Str()
		}
		if got != fl {
			t.Fatalf("field %d: wrote %+v, read %+v (err %v)", i, fl, got, d.Err)
		}
	}
	if err := d.End(); err != nil {
		t.Fatalf("reading back %d fields: %v", len(fields), err)
	}
}
