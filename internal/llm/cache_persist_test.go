package llm

import (
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// TestCacheKeyCollisionRegression pins the collision fix. The previous key
// serialized messages as \0 role \0 content and hashed the stream to 64 bits,
// so these two requests — distinct prompts — produced the same byte stream
// ("\0r\0c\0x" both ways) and therefore the same FNV key: the second caller
// silently received the first caller's completion. The canonical encoding
// length-prefixes every field and the table compares full key material, so
// they must occupy distinct slots.
func TestCacheKeyCollisionRegression(t *testing.T) {
	a := Request{Model: "m", Messages: []Message{{Role: "r", Content: "c\x00x"}}}
	b := Request{Model: "m", Messages: []Message{{Role: "r\x00c", Content: "x"}}}
	if cacheKey(a) == cacheKey(b) {
		t.Fatal("distinct requests share a cache key: encoding is not injective")
	}
	under := &countingClient{}
	c := NewCached(under)
	ra, err := c.Complete(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Complete(b)
	if err != nil {
		t.Fatal(err)
	}
	if under.calls != 2 {
		t.Fatalf("underlying calls = %d, want 2: colliding requests shared an entry", under.calls)
	}
	if ra.Content == rb.Content {
		t.Error("second request was served the first request's completion")
	}
}

// identifiedReq is a temperature-0 request carrying an attempt identity, the
// shape of pipeline eval traffic (persist reads are gated on it).
func identifiedReq(model, prompt string) Request {
	r := req(model, prompt, 0)
	r.Attempt = trace.Key{Doc: "doc", Claim: 1, Method: "oneshot", Try: 1}
	return r
}

func TestCachedPersistRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Process 1: a cold cache pays the model and warms the store.
	under1 := &countingClient{}
	c1 := &Cached{Client: under1, Persist: st}
	want, err := c1.Complete(identifiedReq("m", "prompt"))
	if err != nil {
		t.Fatal(err)
	}
	if under1.calls != 1 {
		t.Fatalf("cold run calls = %d, want 1", under1.calls)
	}

	// Process 2: a fresh cache over the same store must answer from disk —
	// bit-identical response, zero model invocations.
	under2 := &countingClient{}
	tr := trace.New()
	c2 := &Cached{Client: under2, Persist: st, Tracer: tr}
	got, err := c2.Complete(identifiedReq("m", "prompt"))
	if err != nil {
		t.Fatal(err)
	}
	if under2.calls != 0 {
		t.Fatalf("warm run invoked the model %d times", under2.calls)
	}
	if got != want {
		t.Errorf("persisted response differs: %+v != %+v", got, want)
	}
	if gets, hits := c2.PersistStats(); gets != 1 || hits != 1 {
		t.Errorf("persist stats = %d/%d, want 1/1", gets, hits)
	}
	if calls, hits := c2.Stats(); calls != 1 || hits != 1 {
		t.Errorf("stats = %d/%d, want 1/1 (persist hit counts as hit)", calls, hits)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Kind != trace.KindPersistHit {
		t.Fatalf("spans = %+v, want one persist_hit", spans)
	}
	if spans[0].Fee != PriceFor("m").Cost(want.Usage) || spans[0].PromptTokens != want.Usage.PromptTokens {
		t.Errorf("persist_hit span is not a full attempt replica: %+v", spans[0])
	}

	// Third process hit is served from the in-memory table once installed.
	if _, err := c2.Complete(identifiedReq("m", "prompt")); err != nil {
		t.Fatal(err)
	}
	if gets, _ := c2.PersistStats(); gets != 1 {
		t.Errorf("in-memory hit consulted the store again (gets=%d)", gets)
	}
}

// TestCachedPersistIgnoresAnonymousReads pins the profiling gate: anonymous
// traffic (zero Attempt) must not read the store — its measured costs feed
// the scheduler, and a free completion would change the planned schedule
// between cold and warm runs. Writes still happen, warming the store.
func TestCachedPersistIgnoresAnonymousReads(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	under1 := &countingClient{}
	c1 := &Cached{Client: under1, Persist: st}
	if _, err := c1.Complete(req("m", "prompt", 0)); err != nil { // anonymous
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("anonymous completion not persisted (len=%d)", st.Len())
	}

	under2 := &countingClient{}
	c2 := &Cached{Client: under2, Persist: st}
	if _, err := c2.Complete(req("m", "prompt", 0)); err != nil { // anonymous again
		t.Fatal(err)
	}
	if under2.calls != 1 {
		t.Fatalf("anonymous request was answered from the store (calls=%d)", under2.calls)
	}
	if gets, hits := c2.PersistStats(); gets != 0 || hits != 0 {
		t.Errorf("anonymous request consulted the store: %d/%d", gets, hits)
	}

	// The same prompt with an identity IS served from the store.
	under3 := &countingClient{}
	c3 := &Cached{Client: under3, Persist: st}
	if _, err := c3.Complete(identifiedReq("m", "prompt")); err != nil {
		t.Fatal(err)
	}
	if under3.calls != 0 {
		t.Errorf("identified request missed the warmed store (calls=%d)", under3.calls)
	}
}

// TestCachedPersistSkipsErrorsAndPositiveTemp: failed completions and
// temperature>0 traffic must never be persisted — a warm run has to re-fault
// and re-sample exactly like a cold one.
func TestCachedPersistSkipsErrorsAndPositiveTemp(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c := &Cached{Client: &countingClient{}, Persist: st}
	if _, err := c.Complete(req("m", "sampled", 0.7)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("positive-temperature completion was persisted")
	}

	fail := &Cached{Client: failingClient{}, Persist: st}
	if _, err := fail.Complete(identifiedReq("m", "boom")); err == nil {
		t.Fatal("failingClient returned no error")
	}
	if st.Len() != 0 {
		t.Errorf("failed completion was persisted")
	}
}

type failingClient struct{}

func (failingClient) Complete(Request) (Response, error) {
	return Response{}, ErrUnknownModel
}

func TestPersistedResponseCodec(t *testing.T) {
	want := Response{
		Content: "a completion\x00with binary\nand lines",
		Usage:   Usage{PromptTokens: 123, CompletionTokens: 456},
		Latency: 789 * time.Millisecond,
	}
	got, ok := decodePersistedResponse(encodePersistedResponse(want))
	if !ok || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := decodePersistedResponse(nil); ok {
		t.Error("nil decoded")
	}
	if _, ok := decodePersistedResponse([]byte{99, 0, 0, 0, 0}); ok {
		t.Error("unknown version decoded")
	}
	enc := encodePersistedResponse(want)
	if _, ok := decodePersistedResponse(enc[:len(enc)-1]); ok {
		t.Error("truncated value decoded")
	}
}
