package llm

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Error("empty text must cost zero tokens")
	}
	if got := CountTokens("word"); got != 1 {
		t.Errorf("short word = %d", got)
	}
	long := strings.Repeat("abcdefgh ", 100)
	got := CountTokens(long)
	if got < 150 || got > 300 {
		t.Errorf("long text tokens = %d, want ~225", got)
	}
	// Many short words: word count dominates the char/4 estimate.
	if got := CountTokens("a b c d e f"); got != 6 {
		t.Errorf("short words = %d want 6", got)
	}
}

func TestCountTokensMonotoneProperty(t *testing.T) {
	f := func(a, b string) bool {
		return CountTokens(a+b) >= CountTokens(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPricingCost(t *testing.T) {
	p := Pricing{InPerToken: 1_000_000, OutPerToken: 2_000_000}
	got := p.Cost(Usage{PromptTokens: 500, CompletionTokens: 250})
	if got != 1_000_000_000 || got.Dollars() != 1 {
		t.Errorf("cost = %d nanodollars want 1e9", got)
	}
}

func TestPricingLatency(t *testing.T) {
	p := Pricing{TokensPerSecond: 100, PerCallOverhead: 100 * time.Millisecond}
	lat := p.Latency(Usage{PromptTokens: 1000, CompletionTokens: 100})
	// 100ms overhead + 1s generation + 1s ingestion
	want := 100*time.Millisecond + time.Second + time.Second
	if lat != want {
		t.Errorf("latency = %v want %v", lat, want)
	}
	zero := Pricing{PerCallOverhead: time.Second}
	if zero.Latency(Usage{CompletionTokens: 50}) != time.Second {
		t.Error("zero speed must fall back to overhead")
	}
}

func TestModelPricesOrdered(t *testing.T) {
	// The schedule must preserve the paper's cost ordering: GPT-3.5 is the
	// cheap model, GPT-4o and GPT-4.1 are the expensive ones.
	cheap := DefaultPricing[ModelGPT35]
	for _, m := range []string{ModelGPT4o, ModelGPT41} {
		p := DefaultPricing[m]
		if p.InPerToken <= cheap.InPerToken || p.OutPerToken <= cheap.OutPerToken {
			t.Errorf("%s not more expensive than GPT-3.5", m)
		}
	}
}

func TestPriceForUnknownModel(t *testing.T) {
	if PriceFor("mystery").InPerToken <= 0 {
		t.Error("unknown model must get a non-zero fallback price")
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Record(ModelGPT35, Usage{PromptTokens: 1000, CompletionTokens: 1000}, time.Second)
	l.Record(ModelGPT4o, Usage{PromptTokens: 1000, CompletionTokens: 1000}, 2*time.Second)
	l.Record(ModelGPT35, Usage{PromptTokens: 500, CompletionTokens: 0}, time.Second)

	if l.TotalCalls() != 3 {
		t.Errorf("calls = %d", l.TotalCalls())
	}
	// $0.0005 + $0.0015 + $0.0025 + $0.01 + $0.00025, to the nanodollar.
	if l.TotalFee() != 14_750_000 || l.TotalDollars() != 0.01475 {
		t.Errorf("fee = %d nanodollars ($%v) want 14750000 ($0.01475)", l.TotalFee(), l.TotalDollars())
	}
	if l.TotalWall() != 4*time.Second {
		t.Errorf("wall = %v", l.TotalWall())
	}
	if u := l.TotalUsage(); u.Total() != 4500 {
		t.Errorf("usage = %+v", u)
	}
	entries := l.Entries()
	if len(entries) != 2 || entries[0].Model != ModelGPT35 || entries[0].Calls != 2 {
		t.Errorf("entries = %+v", entries)
	}
	if !strings.Contains(l.String(), "total: $") {
		t.Errorf("String() = %q", l.String())
	}
	l.Reset()
	if l.TotalCalls() != 0 {
		t.Error("reset failed")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				l.Record(ModelGPT4o, Usage{PromptTokens: 10, CompletionTokens: 5}, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if l.TotalCalls() != 1000 {
		t.Errorf("calls = %d want 1000", l.TotalCalls())
	}
}

type fixedClient struct{ resp Response }

func (f fixedClient) Complete(Request) (Response, error) { return f.resp, nil }

func TestMetered(t *testing.T) {
	l := NewLedger()
	c := &Metered{Client: fixedClient{resp: Response{
		Content: "ok",
		Usage:   Usage{PromptTokens: 100, CompletionTokens: 10},
		Latency: time.Second,
	}}, Ledger: l}
	resp, err := c.Complete(Request{Model: ModelGPT35})
	if err != nil || resp.Content != "ok" {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}
	if l.TotalCalls() != 1 || l.TotalUsage().Total() != 110 {
		t.Errorf("ledger = %+v", l.Entries())
	}
}

func TestPromptText(t *testing.T) {
	got := PromptText([]Message{{Role: RoleSystem, Content: "a"}, {Role: RoleUser, Content: "b"}})
	if got != "a\nb" {
		t.Errorf("PromptText = %q", got)
	}
}

func TestUsageAdd(t *testing.T) {
	u := Usage{PromptTokens: 1, CompletionTokens: 2}.Add(Usage{PromptTokens: 3, CompletionTokens: 4})
	if u.PromptTokens != 4 || u.CompletionTokens != 6 || u.Total() != 10 {
		t.Errorf("usage = %+v", u)
	}
}

func TestCountMessageTokens(t *testing.T) {
	msgs := []Message{
		{Role: RoleSystem, Content: "You are helpful."},
		{Role: RoleUser, Content: "Hello there, how are you today my friend?"},
	}
	got := CountMessageTokens(msgs)
	want := CountTokens(msgs[0].Content) + CountTokens(msgs[1].Content) + 8
	if got != want {
		t.Errorf("CountMessageTokens = %d want %d", got, want)
	}
}
