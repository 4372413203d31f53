package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAssignsPerKeySequence(t *testing.T) {
	tr := New()
	a := Key{Doc: "d1", Claim: 0, Method: "oneshot", Try: 0}
	b := Key{Doc: "d1", Claim: 1, Method: "oneshot", Try: 0}
	tr.Record(Span{Key: a, Kind: KindAttempt})
	tr.Record(Span{Key: b, Kind: KindAttempt})
	tr.Record(Span{Key: a, Kind: KindFault})
	tr.Record(Span{Key: a, Kind: KindOutcome})
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d", len(spans))
	}
	// Sorted: a's three spans (seq 0,1,2) then b's one (seq 0).
	wantKinds := []string{KindAttempt, KindFault, KindOutcome, KindAttempt}
	wantSeqs := []int{0, 1, 2, 0}
	for i, s := range spans {
		if s.Kind != wantKinds[i] || s.Seq != wantSeqs[i] {
			t.Errorf("span %d = kind %s seq %d, want %s/%d", i, s.Kind, s.Seq, wantKinds[i], wantSeqs[i])
		}
	}
}

// TestSortedOrderIndependentOfRecordingOrder is the heart of the determinism
// contract: interleaving recordings from concurrent attempts must not change
// the canonical sorted stream, as long as each attempt's own spans stay in
// attempt order.
func TestSortedOrderIndependentOfRecordingOrder(t *testing.T) {
	mk := func(interleave bool) []byte {
		tr := New()
		a := Key{Doc: "d1", Claim: 0, Method: "m", Try: 0}
		b := Key{Doc: "d1", Claim: 1, Method: "m", Try: 0}
		if interleave {
			tr.Record(Span{Key: b, Kind: KindAttempt, Fee: 2})
			tr.Record(Span{Key: a, Kind: KindAttempt, Fee: 1})
			tr.Record(Span{Key: b, Kind: KindOutcome, Outcome: OutcomeVerified})
			tr.Record(Span{Key: a, Kind: KindOutcome, Outcome: OutcomeImplausible})
		} else {
			tr.Record(Span{Key: a, Kind: KindAttempt, Fee: 1})
			tr.Record(Span{Key: a, Kind: KindOutcome, Outcome: OutcomeImplausible})
			tr.Record(Span{Key: b, Kind: KindAttempt, Fee: 2})
			tr.Record(Span{Key: b, Kind: KindOutcome, Outcome: OutcomeVerified})
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(false), mk(true)) {
		t.Errorf("sorted JSONL depends on recording order:\n%s\nvs\n%s", mk(false), mk(true))
	}
}

func TestNilTracerIsDisabledNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Record(Span{Kind: KindAttempt}) // must not panic
	tr.Reset()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer holds spans")
	}
}

// TestNilTracerRecordAllocatesNothing guards the zero-cost-when-disabled
// contract on the hot path: recording into a nil tracer must not allocate.
func TestNilTracerRecordAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("unreachable")
		}
		tr.Record(Span{Kind: KindAttempt, Model: "m", Fee: 1})
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per record, want 0", allocs)
	}
}

func TestTracerConcurrentRaceClean(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Key{Doc: "d", Claim: g, Method: "m"}
			for i := 0; i < 50; i++ {
				tr.Record(Span{Key: k, Kind: KindAttempt})
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 32*50 {
		t.Fatalf("len = %d", tr.Len())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if s.Seq != i%50 {
			t.Fatalf("span %d seq = %d, want %d", i, s.Seq, i%50)
		}
	}
}

func TestResetClearsSequenceState(t *testing.T) {
	tr := New()
	k := Key{Doc: "d"}
	tr.Record(Span{Key: k, Kind: KindAttempt})
	tr.Reset()
	tr.Record(Span{Key: k, Kind: KindAttempt})
	if got := tr.Spans()[0].Seq; got != 0 {
		t.Errorf("seq after reset = %d, want 0", got)
	}
}

func TestAggregateRollups(t *testing.T) {
	tr := New()
	k := func(c int) Key { return Key{Doc: "d", Claim: c, Method: "oneshot-gpt3.5", Try: 0} }
	for c := 0; c < 4; c++ {
		tr.Record(Span{Key: k(c), Kind: KindAttempt, Model: "gpt35",
			PromptTokens: 100, CompletionTokens: 10, Fee: 1_000_000,
			Latency: time.Duration(c+1) * time.Second, Outcome: OutcomeOK})
	}
	tr.Record(Span{Key: k(3), Kind: KindFault, Outcome: "transient"})
	tr.Record(Span{Key: k(3), Kind: KindAttempt, Model: "gpt35", Fee: 2_000_000,
		Latency: 10 * time.Second, Outcome: OutcomeError})
	for c := 0; c < 3; c++ {
		tr.Record(Span{Key: k(c), Kind: KindOutcome, Outcome: OutcomeVerified})
	}
	tr.Record(Span{Key: k(3), Kind: KindOutcome, Outcome: "transient"})

	sum := tr.Summary()
	if sum.Attempts != 5 {
		t.Fatalf("attempts = %d", sum.Attempts)
	}
	if len(sum.ByMethod) != 1 || len(sum.ByModel) != 1 {
		t.Fatalf("rollup groups: %d methods, %d models", len(sum.ByMethod), len(sum.ByModel))
	}
	m := sum.ByMethod[0]
	if m.Name != "oneshot-gpt3.5" || m.Attempts != 5 || m.Errors != 1 {
		t.Errorf("method rollup %+v", m)
	}
	if m.PromptTokens != 400 || m.CompletionTokens != 40 {
		t.Errorf("token totals %d/%d", m.PromptTokens, m.CompletionTokens)
	}
	if got := m.Fee; got != 6_000_000 {
		t.Errorf("fee = %d nanodollars, want 6000000", got)
	}
	// Latencies {1s,2s,3s,4s,10s}: nearest-rank p50 = 3s, p95 = p99 = 10s.
	if m.P50 != 3*time.Second || m.P95 != 10*time.Second || m.P99 != 10*time.Second {
		t.Errorf("quantiles p50=%v p95=%v p99=%v", m.P50, m.P95, m.P99)
	}
	if len(sum.Outcomes) != 2 || sum.Outcomes[0].Outcome != "transient" || sum.Outcomes[1].N != 3 {
		t.Errorf("outcomes %+v", sum.Outcomes)
	}
	table := sum.Table()
	for _, want := range []string{"oneshot-gpt3.5", "gpt35", "verified=3", "fault=1"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table() missing %q:\n%s", want, table)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	ls := []time.Duration{1, 2, 3, 4}
	cases := []struct {
		q    float64
		want time.Duration
	}{{0.25, 1}, {0.5, 2}, {0.75, 3}, {0.99, 4}, {1, 4}}
	for _, c := range cases {
		if got := quantile(ls, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestManifestJSON(t *testing.T) {
	m := Manifest{Seed: 7, Workers: 8, Docs: 3, Claims: 42, Options: map[string]int{"Retries": 2}}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(m.JSON()), &decoded); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if decoded["seed"].(float64) != 7 || decoded["claims"].(float64) != 42 {
		t.Errorf("manifest = %s", m.JSON())
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	tr := New()
	tr.Record(Span{Key: Key{Doc: "d", Claim: 1, Method: "m", Try: 0}, Kind: KindAttempt,
		Model: "gpt", Temperature: 0.25, Seed: -12345, PromptTokens: 9, CompletionTokens: 4,
		Fee: 100_000, Latency: 1500 * time.Millisecond, Outcome: OutcomeOK})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var s Span
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s != tr.Spans()[0] {
		t.Errorf("round trip changed span:\n got %+v\nwant %+v", s, tr.Spans()[0])
	}
}

// TestReplayNormalize pins the §11 normalization rules: persist_hit spans
// become ok-attempts, cache_hit/cache_wait/memo_mismatch spans vanish, and
// per-key sequence numbers are renumbered over what remains so a warm trace
// lines up span for span with its cold counterpart.
func TestReplayNormalize(t *testing.T) {
	k := Key{Doc: "d", Claim: 1, Method: "oneshot", Try: 1}
	other := Key{Doc: "d", Claim: 2, Method: "oneshot", Try: 1}
	cold := []Span{
		{Key: k, Seq: 0, Kind: KindAttempt, Model: "m", Fee: 500_000_000, Outcome: OutcomeOK},
		{Key: k, Seq: 1, Kind: KindOutcome, Outcome: OutcomeVerified},
		{Key: other, Seq: 0, Kind: KindCacheHit, Model: "m"},
		{Key: other, Seq: 1, Kind: KindAttempt, Model: "m", Fee: 500_000_000, Outcome: OutcomeOK},
		{Key: other, Seq: 2, Kind: KindOutcome, Outcome: OutcomeVerified},
	}
	warm := []Span{
		{Key: k, Seq: 0, Kind: KindPersistHit, Model: "m", Fee: 500_000_000, Outcome: OutcomeOK},
		{Key: k, Seq: 1, Kind: KindOutcome, Outcome: OutcomeVerified},
		{Key: other, Seq: 0, Kind: KindCacheWait, Model: "m", Outcome: OutcomeOK},
		{Key: other, Seq: 1, Kind: KindMemoMismatch, Outcome: OutcomeError},
		{Key: other, Seq: 2, Kind: KindPersistHit, Model: "m", Fee: 500_000_000, Outcome: OutcomeOK},
		{Key: other, Seq: 3, Kind: KindOutcome, Outcome: OutcomeVerified},
		// Arrival-order noise from a streamed run: dropped like routing spans.
		{Key: Key{Doc: "d", Method: "stream"}, Seq: 0, Kind: KindStreamAdmit, Detail: "arrival=3"},
		{Key: Key{Doc: "d", Method: "stream"}, Seq: 1, Kind: KindStreamResult},
	}
	nc, nw := ReplayNormalize(cold), ReplayNormalize(warm)
	if len(nc) != 4 || len(nw) != 4 {
		t.Fatalf("normalized lengths = %d/%d, want 4/4", len(nc), len(nw))
	}
	for i := range nc {
		if nc[i] != nw[i] {
			t.Errorf("span %d diverged after normalization:\n cold %+v\n warm %+v", i, nc[i], nw[i])
		}
	}
	if nc[0].Kind != KindAttempt || nc[0].Outcome != OutcomeOK {
		t.Errorf("persist_hit not rewritten to ok-attempt: %+v", nw[0])
	}
	// Renumbering: the surviving spans of `other` must be seq 0, 1.
	if nw[2].Seq != 0 || nw[3].Seq != 1 {
		t.Errorf("per-key seq not renumbered: %d, %d", nw[2].Seq, nw[3].Seq)
	}
	// Input order and content untouched (normalization copies).
	if warm[0].Kind != KindPersistHit || warm[2].Seq != 0 {
		t.Error("ReplayNormalize mutated its input")
	}
}

// TestTracerResetReusesStorage: a tracer reset at every micro-batch keeps its
// span slice and sequence map, so a batch of the same shape as the last
// records without allocating, and starts its sequences from zero again.
func TestTracerResetReusesStorage(t *testing.T) {
	tr := New()
	keys := []Key{{Doc: "a", Method: "m"}, {Doc: "b", Method: "m"}, {Doc: "c", Claim: 1}}
	batch := func() {
		tr.Reset()
		for i := 0; i < 40; i++ {
			tr.Record(Span{Key: keys[i%len(keys)], Kind: KindAttempt})
		}
	}
	batch()
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Errorf("%.0f allocations per reset and batch, want 0", n)
	}
	spans := tr.Spans()
	if len(spans) != 40 {
		t.Fatalf("%d spans after reset, want 40", len(spans))
	}
	next := map[Key]int{}
	for _, s := range spans { // canonical order: each key's spans by sequence
		if s.Seq != next[s.Key] {
			t.Fatalf("span %+v: seq %d, want %d", s.Key, s.Seq, next[s.Key])
		}
		next[s.Key]++
	}
}
