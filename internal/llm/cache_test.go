package llm

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// countingClient counts invocations and returns a response echoing the
// prompt, so cache correctness is observable.
type countingClient struct {
	mu    sync.Mutex
	calls int
}

func (c *countingClient) Complete(req Request) (Response, error) {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	return Response{
		Content: fmt.Sprintf("reply %d to %s", n, PromptText(req.Messages)),
		Usage:   Usage{PromptTokens: 10, CompletionTokens: 5},
	}, nil
}

func req(model, prompt string, temp float64) Request {
	return Request{Model: model, Messages: []Message{{Role: RoleUser, Content: prompt}}, Temperature: temp}
}

func TestCachedHitsTempZero(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	r1, err := c.Complete(req("m", "hello", 0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(req("m", "hello", 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Content != r2.Content {
		t.Error("cached response differs")
	}
	if under.calls != 1 {
		t.Errorf("underlying calls = %d want 1", under.calls)
	}
	calls, hits := c.Stats()
	if calls != 2 || hits != 1 {
		t.Errorf("stats = %d/%d", calls, hits)
	}
}

func TestCachedBypassesPositiveTemperature(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	a, _ := c.Complete(req("m", "hello", 0.5))
	b, _ := c.Complete(req("m", "hello", 0.5))
	if a.Content == b.Content {
		t.Error("positive-temperature completions must not be cached")
	}
	if under.calls != 2 {
		t.Errorf("underlying calls = %d", under.calls)
	}
}

func TestCachedKeysOnModelAndMessages(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	c.Complete(req("m1", "p", 0))
	c.Complete(req("m2", "p", 0))
	c.Complete(req("m1", "q", 0))
	if under.calls != 3 {
		t.Errorf("distinct requests must all reach the client: %d", under.calls)
	}
}

func TestCachedEviction(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	for i := 0; i <= maxCacheEntries; i++ { // one past the cap evicts "p0"
		c.Complete(req("m", fmt.Sprintf("p%d", i), 0))
	}
	c.Complete(req("m", "p0", 0)) // miss again
	if under.calls != maxCacheEntries+2 {
		t.Errorf("calls = %d want %d (eviction)", under.calls, maxCacheEntries+2)
	}
	// "p0" and the newest entry are resident now.
	c.Complete(req("m", "p0", 0))
	c.Complete(req("m", fmt.Sprintf("p%d", maxCacheEntries), 0))
	if under.calls != maxCacheEntries+2 {
		t.Errorf("calls = %d, resident entries missed", under.calls)
	}
}

// TestCacheKeyIncludesMaxTokens pins the cache-key fix: two temperature-0
// requests with the same prompt but different completion caps truncate
// differently, so they must occupy distinct cache slots.
func TestCacheKeyIncludesMaxTokens(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	short := req("m", "p", 0)
	short.MaxTokens = 64
	long := req("m", "p", 0)
	long.MaxTokens = 512
	c.Complete(short)
	c.Complete(long) // must miss: same prompt, different cap
	if under.calls != 2 {
		t.Fatalf("underlying calls = %d, want 2: different MaxTokens collided", under.calls)
	}
	c.Complete(short)
	c.Complete(long) // both resident now
	if under.calls != 2 {
		t.Errorf("underlying calls = %d, want 2: same-cap repeats must hit", under.calls)
	}
	if calls, hits := c.Stats(); calls != 4 || hits != 2 {
		t.Errorf("stats = %d/%d, want 4/2", calls, hits)
	}
}

// primeInflight installs a completed single-flight leader for r so a waiter's
// accounting can be tested deterministically: the done channel is already
// closed, so Complete takes the waiter branch and returns immediately without
// any goroutine scheduling. (Concurrency-based versions of this test are
// flaky — a "waiter" that arrives after the leader's delete becomes a new
// leader instead.)
func primeInflight(c *Cached, r Request, resp Response, err error) {
	call := &inflightCall{done: make(chan struct{}), resp: resp, err: err}
	close(call.done)
	c.mu.Lock()
	if c.table == nil {
		c.table = make(map[string]*list.Element)
		c.order = list.New()
		c.inflight = make(map[string]*inflightCall)
	}
	c.inflight[cacheKey(r)] = call
	c.mu.Unlock()
}

// TestCachedWaiterCountsHits pins the single-flight accounting fix: a waiter
// counts as a hit whether the leader succeeded or failed — in both cases the
// model was not re-invoked for the waiting request. Error-path waits
// previously went uncounted, understating hit rate under fault injection.
func TestCachedWaiterCountsHits(t *testing.T) {
	t.Run("leader succeeded", func(t *testing.T) {
		under := &countingClient{}
		c := NewCached(under)
		r := req("m", "p", 0)
		primeInflight(c, r, Response{Content: "leader reply"}, nil)
		resp, err := c.Complete(r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Content != "leader reply" {
			t.Errorf("waiter got %q, want the leader's response", resp.Content)
		}
		if under.calls != 0 {
			t.Errorf("waiter invoked the model %d times", under.calls)
		}
		if calls, hits := c.Stats(); calls != 1 || hits != 1 {
			t.Errorf("stats = %d/%d, want 1/1", calls, hits)
		}
	})
	t.Run("leader failed", func(t *testing.T) {
		under := &countingClient{}
		c := NewCached(under)
		r := req("m", "p", 0)
		leaderErr := errors.New("simulated transport failure")
		primeInflight(c, r, Response{}, leaderErr)
		_, err := c.Complete(r)
		if err != leaderErr {
			t.Fatalf("waiter error = %v, want the leader's error", err)
		}
		if under.calls != 0 {
			t.Errorf("waiter invoked the model %d times", under.calls)
		}
		if calls, hits := c.Stats(); calls != 1 || hits != 1 {
			t.Errorf("stats = %d/%d, want 1/1 (error-path wait must count)", calls, hits)
		}
	})
}

func TestCachedConcurrent(t *testing.T) {
	under := &countingClient{}
	c := NewCached(under)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := c.Complete(req("m", fmt.Sprintf("p%d", j%8), 0)); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	calls, hits := c.Stats()
	if calls != 32*50 {
		t.Errorf("calls = %d", calls)
	}
	if hits < calls-100 {
		t.Errorf("hits = %d of %d, cache barely effective", hits, calls)
	}
}
