package llm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stableClient is a thread-safe fake provider whose response depends only on
// the request (unlike countingClient's call-numbered replies), so concurrent
// callers can assert exact contents; it tallies actual invocations.
type stableClient struct {
	invocations atomic.Int64
}

func (c *stableClient) Complete(req Request) (Response, error) {
	c.invocations.Add(1)
	return Response{
		Content: "echo: " + PromptText(req.Messages),
		Usage:   Usage{PromptTokens: 10, CompletionTokens: 5},
		Latency: time.Microsecond,
	}, nil
}

// TestLedgerConcurrentRecording hammers one ledger from 32 goroutines and
// checks that no bookings are lost and the fee equals the fee of the same
// usage recorded serially (run under -race via make check).
func TestLedgerConcurrentRecording(t *testing.T) {
	const goroutines = 32
	const perGoroutine = 200
	ledger := NewLedger()
	u := Usage{PromptTokens: 7, CompletionTokens: 3}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := ModelGPT35
			if g%2 == 1 {
				model = ModelGPT4o
			}
			for i := 0; i < perGoroutine; i++ {
				ledger.Record(model, u, time.Millisecond)
			}
		}(g)
	}
	wg.Wait()

	want := NewLedger()
	for i := 0; i < goroutines*perGoroutine/2; i++ {
		want.Record(ModelGPT35, u, time.Millisecond)
		want.Record(ModelGPT4o, u, time.Millisecond)
	}
	if got := ledger.TotalCalls(); got != goroutines*perGoroutine {
		t.Errorf("calls = %d, want %d", got, goroutines*perGoroutine)
	}
	if got, w := ledger.TotalUsage(), want.TotalUsage(); got != w {
		t.Errorf("usage = %+v, want %+v", got, w)
	}
	// Fees must equal the serial booking exactly: they are whole
	// nanodollars, so the total does not depend on booking order.
	if got, w := ledger.TotalFee(), want.TotalFee(); got != w {
		t.Errorf("dollars = %v, want %v", got, w)
	}
	if got, w := ledger.TotalWall(), want.TotalWall(); got != w {
		t.Errorf("wall = %v, want %v", got, w)
	}
}

// TestCachedConcurrentSingleFlight fires 32 goroutines at a shared cache,
// all repeatedly requesting the same small set of temperature-0 prompts, and
// checks the underlying client was invoked exactly once per distinct prompt.
func TestCachedConcurrentSingleFlight(t *testing.T) {
	const goroutines = 32
	const perGoroutine = 50
	const distinctPrompts = 4
	client := &stableClient{}
	cache := NewCached(client)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				prompt := fmt.Sprintf("prompt-%d", (g+i)%distinctPrompts)
				resp, err := cache.Complete(Request{
					Model:    ModelGPT35,
					Messages: []Message{{Role: RoleUser, Content: prompt}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := "echo: " + prompt; resp.Content != want {
					t.Errorf("content = %q, want %q", resp.Content, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := client.invocations.Load(); got != distinctPrompts {
		t.Errorf("client invoked %d times, want %d (single-flight must deduplicate concurrent misses)", got, distinctPrompts)
	}
	calls, hits := cache.Stats()
	if calls != goroutines*perGoroutine {
		t.Errorf("cache lookups = %d, want %d", calls, goroutines*perGoroutine)
	}
	if hits != calls-distinctPrompts {
		t.Errorf("hits = %d, want %d", hits, calls-distinctPrompts)
	}
}

// TestMeteredConcurrentBilling drives a metered client from 32 goroutines
// and checks the ledger booked every call exactly once.
func TestMeteredConcurrentBilling(t *testing.T) {
	const goroutines = 32
	const perGoroutine = 100
	client := &stableClient{}
	ledger := NewLedger()
	metered := &Metered{Client: client, Ledger: ledger}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if _, err := metered.Complete(Request{
					Model:    ModelGPT4o,
					Messages: []Message{{Role: RoleUser, Content: fmt.Sprintf("q-%d-%d", g, i)}},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ledger.TotalCalls(); got != goroutines*perGoroutine {
		t.Errorf("ledger calls = %d, want %d", got, goroutines*perGoroutine)
	}
	wantUsage := Usage{PromptTokens: 10 * goroutines * perGoroutine, CompletionTokens: 5 * goroutines * perGoroutine}
	if got := ledger.TotalUsage(); got != wantUsage {
		t.Errorf("usage = %+v, want %+v", got, wantUsage)
	}
	if got, want := ledger.TotalFee(), PriceFor(ModelGPT4o).Cost(wantUsage); got != want {
		t.Errorf("dollars = %v, want %v", got, want)
	}
}
