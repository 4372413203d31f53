package resilience

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/metrics"
)

// scriptClient replies according to fn, which sees the 0-based call ordinal
// and the request; it is safe for concurrent use.
type scriptClient struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, req llm.Request) (llm.Response, error)
}

func (c *scriptClient) Complete(req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	call := c.calls
	c.calls++
	c.mu.Unlock()
	return c.fn(call, req)
}

func (c *scriptClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func ok(latency time.Duration) func(int, llm.Request) (llm.Response, error) {
	return func(int, llm.Request) (llm.Response, error) {
		return llm.Response{Content: "answer", Usage: llm.Usage{PromptTokens: 10, CompletionTokens: 5}, Latency: latency}, nil
	}
}

func TestErrorTaxonomy(t *testing.T) {
	for _, err := range []error{ErrRateLimited, ErrTimeout, ErrTransient} {
		if !Retryable(err) {
			t.Errorf("%v should be retryable", err)
		}
		// Classification must survive %w wrapping, which is how verify and
		// agent layers propagate transport errors.
		wrapped := fmt.Errorf("verify: method agent-gpt4o: %w", err)
		if !Retryable(wrapped) {
			t.Errorf("wrapped %v should stay retryable", err)
		}
	}
	for _, err := range []error{ErrPermanent, ErrCircuitOpen, errors.New("semantic"), nil} {
		if Retryable(err) {
			t.Errorf("%v should not be retryable", err)
		}
	}
	cases := []struct {
		err   error
		class string
		ok    bool
	}{
		{fmt.Errorf("x: %w", ErrRateLimited), "rate_limited", true},
		{fmt.Errorf("x: %w", ErrTimeout), "timeout", true},
		{ErrTransient, "transient", true},
		{ErrPermanent, "permanent", true},
		{fmt.Errorf("x: %w", ErrCircuitOpen), "circuit_open", true},
		{errors.New("no query found"), "", false},
		{nil, "", false},
	}
	for _, tc := range cases {
		class, got := Classify(tc.err)
		if class != tc.class || got != tc.ok {
			t.Errorf("Classify(%v) = (%q, %v), want (%q, %v)", tc.err, class, got, tc.class, tc.ok)
		}
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Rate: 0.5}
	var first []error
	for occ := 0; occ < 200; occ++ {
		first = append(first, plan.fault(12345, occ))
	}
	faults := 0
	for occ, want := range first {
		if got := plan.fault(12345, occ); !errors.Is(got, want) && got != want {
			t.Fatalf("occ %d: fault not reproducible: %v vs %v", occ, got, want)
		}
		if want != nil {
			faults++
		}
	}
	// ~50% of 200 draws should fault; a wide band guards the distribution
	// without inviting flakiness (the draws are deterministic anyway).
	if faults < 60 || faults > 140 {
		t.Errorf("rate 0.5 injected %d/200 faults, outside [60, 140]", faults)
	}
	// A different seed must produce a different schedule.
	other := Plan{Seed: 43, Rate: 0.5}
	same := 0
	for occ := 0; occ < 200; occ++ {
		if (other.fault(12345, occ) == nil) == (first[occ] == nil) {
			same++
		}
	}
	if same == 200 {
		t.Error("seed 43 reproduced seed 42's entire fault schedule")
	}

	if (Plan{Rate: 0}).fault(1, 1) != nil {
		t.Error("rate 0 must never fault")
	}
	all := Plan{Seed: 7, Rate: 1}
	for occ := 0; occ < 50; occ++ {
		if all.fault(99, occ) == nil {
			t.Fatalf("rate 1 produced a clean call at occ %d", occ)
		}
	}
	// Class weights: a transient-only plan draws nothing else.
	tr := Plan{Seed: 7, Rate: 1, Transient: 1}
	for occ := 0; occ < 50; occ++ {
		if err := tr.fault(99, occ); !errors.Is(err, ErrTransient) {
			t.Fatalf("transient-only plan drew %v", err)
		}
	}
}

// Faulty's occurrence counting gives each request identity its own fault
// sequence: two Faulty instances with the same plan replay identically, and
// distinct request identities draw independently.
func TestFaultyPerIdentitySequences(t *testing.T) {
	mkReq := func(prompt string, seed int64) llm.Request {
		return llm.Request{Model: llm.ModelGPT4o, Messages: []llm.Message{{Role: llm.RoleUser, Content: prompt}}, Seed: seed}
	}
	run := func() []bool {
		f := &Faulty{Client: &scriptClient{fn: ok(time.Second)}, Plan: Plan{Seed: 5, Rate: 0.5}}
		var outcome []bool
		for i := 0; i < 30; i++ {
			_, err := f.Complete(mkReq("p1", 100))
			outcome = append(outcome, err == nil)
			_, err = f.Complete(mkReq("p2", 200))
			outcome = append(outcome, err == nil)
		}
		return outcome
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: fault sequence not reproducible across instances", i)
		}
	}
}

// The failure cost model under the meter: transient failures and timeouts
// bill the underlying call's tokens, rate limits bill only a round trip.
func TestFaultyBillingUnderMeter(t *testing.T) {
	billing := func(plan Plan) (*llm.Ledger, error) {
		ledger := llm.NewLedger()
		m := &llm.Metered{
			Client: &Faulty{Client: &scriptClient{fn: ok(time.Second)}, Plan: plan},
			Ledger: ledger,
		}
		_, err := m.Complete(llm.Request{Model: llm.ModelGPT4o, Messages: []llm.Message{{Role: llm.RoleUser, Content: "p"}}})
		return ledger, err
	}

	led, err := billing(Plan{Seed: 1, Rate: 1, Transient: 1})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	if got := led.TotalUsage().Total(); got != 15 {
		t.Errorf("transient failure billed %d tokens, want 15 (provider did the work)", got)
	}
	if led.TotalDollars() <= 0 {
		t.Error("transient failure must incur a fee")
	}

	led, err = billing(Plan{Seed: 1, Rate: 1, Timeout: 1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if got := led.TotalWall(); got != 2*time.Second {
		t.Errorf("timeout billed %v wall, want 2s (generation plus the wait before giving up)", got)
	}

	led, err = billing(Plan{Seed: 1, Rate: 1, RateLimited: 1})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
	if got := led.TotalUsage().Total(); got != 0 {
		t.Errorf("rate limit billed %d tokens, want 0 (rejected before processing)", got)
	}
	if got := led.TotalWall(); got != llm.PriceFor(llm.ModelGPT4o).PerCallOverhead {
		t.Errorf("rate limit billed %v wall, want the per-call overhead", got)
	}
}

func TestRetrierRecoversAndAccumulates(t *testing.T) {
	res := &metrics.Resilience{}
	c := &scriptClient{fn: func(call int, req llm.Request) (llm.Response, error) {
		if call < 2 {
			return llm.Response{Latency: time.Second}, ErrTransient
		}
		return llm.Response{Content: "answer", Latency: time.Second}, nil
	}}
	r := &Retrier{Client: c, MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Seed: 9, Metrics: res}
	resp, err := r.Complete(llm.Request{Model: llm.ModelGPT4o})
	if err != nil {
		t.Fatalf("retrier gave up: %v", err)
	}
	if resp.Content != "answer" {
		t.Errorf("content = %q", resp.Content)
	}
	// Logical latency spans the two failed attempts, their backoff waits,
	// and the success: > 3s of attempts, plus jittered waits in
	// [50ms, 100ms) and [100ms, 200ms).
	if resp.Latency < 3*time.Second+150*time.Millisecond || resp.Latency > 3*time.Second+300*time.Millisecond {
		t.Errorf("cumulative latency %v outside expected band", resp.Latency)
	}
	snap := res.Snapshot()
	if snap.Attempts != 3 || snap.Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 and 2", snap.Attempts, snap.Retries)
	}
}

// fixedClient answers every request with the same response and allocates
// nothing.
type fixedClient struct{ resp llm.Response }

func (c fixedClient) Complete(llm.Request) (llm.Response, error) { return c.resp, nil }

// A call that succeeds at once never reads its request key, so a Retrier
// around a client must allocate no more than the client: hashing the prompt
// is paid at the first retry, not on every call.
func TestRetrierSuccessAllocatesNothing(t *testing.T) {
	inner := fixedClient{llm.Response{Content: "answer", Latency: time.Second}}
	r := &Retrier{Client: inner, MaxAttempts: 3, Seed: 9, Metrics: &metrics.Resilience{}}
	req := llm.Request{Model: llm.ModelGPT4o, Seed: 3, Messages: []llm.Message{
		{Role: "system", Content: "You translate claims into SQL."},
		{Role: "user", Content: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014."},
	}}
	base := testing.AllocsPerRun(200, func() { _, _ = inner.Complete(req) })
	if got := testing.AllocsPerRun(200, func() { _, _ = r.Complete(req) }); got > base {
		t.Errorf("a successful call through the retrier allocates %.0f times, its client %.0f", got, base)
	}
}

func TestRetrierStopsOnPermanent(t *testing.T) {
	c := &scriptClient{fn: func(int, llm.Request) (llm.Response, error) {
		return llm.Response{}, fmt.Errorf("bad request: %w", ErrPermanent)
	}}
	r := &Retrier{Client: c, MaxAttempts: 5, Seed: 9}
	if _, err := r.Complete(llm.Request{}); !errors.Is(err, ErrPermanent) {
		t.Fatalf("want ErrPermanent, got %v", err)
	}
	if c.count() != 1 {
		t.Errorf("permanent failure retried: %d calls", c.count())
	}
}

func TestRetrierDeadline(t *testing.T) {
	c := &scriptClient{fn: func(int, llm.Request) (llm.Response, error) {
		return llm.Response{Latency: 40 * time.Second}, ErrTransient
	}}
	r := &Retrier{Client: c, MaxAttempts: 10, Deadline: time.Minute, Seed: 9}
	_, err := r.Complete(llm.Request{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if c.count() != 2 {
		t.Errorf("deadline of 1m over 40s attempts allows exactly 2 calls, got %d", c.count())
	}
}

// Backoff schedules are a pure function of (Seed, request, attempt): same
// seed replays the same waits, jitter stays within [d/2, d), and waits never
// exceed MaxDelay.
func TestRetrierBackoffDeterminism(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var waits []time.Duration
		r := &Retrier{
			Client:      &scriptClient{fn: func(int, llm.Request) (llm.Response, error) { return llm.Response{}, ErrTransient }},
			MaxAttempts: 8,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    time.Second,
			Seed:        seed,
			Sleep:       func(d time.Duration) { waits = append(waits, d) },
		}
		r.Complete(llm.Request{Model: llm.ModelGPT35, Seed: 77})
		return waits
	}
	a, b := schedule(3), schedule(3)
	if len(a) != 7 {
		t.Fatalf("expected 7 backoff waits, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d: %v != %v — jitter must be deterministic per seed", i, a[i], b[i])
		}
	}
	for i, d := range a {
		uncapped := 100 * time.Millisecond << uint(i)
		want := uncapped
		if want > time.Second {
			want = time.Second
		}
		if d < want/2 || d >= want {
			t.Errorf("wait %d = %v outside jitter band [%v, %v)", i, d, want/2, want)
		}
	}
	diff := false
	for i, d := range schedule(4) {
		if d != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seed 4 reproduced seed 3's backoff schedule")
	}
}

// Hedge accounting: when the primary is slow, the backup fires with an
// independent seed, the simulated race picks the earlier finish, the
// winner's latency includes the hedge delay — and the loser is still billed
// (hedging buys tail latency with tokens).
func TestHedgedWinnerAccounting(t *testing.T) {
	const primarySeed = int64(1000)
	backupSeed := llm.SplitSeed(primarySeed, "hedge")
	ledger := llm.NewLedger()
	res := &metrics.Resilience{}
	inner := &scriptClient{fn: func(_ int, req llm.Request) (llm.Response, error) {
		if req.Seed == backupSeed {
			return llm.Response{Content: "backup", Usage: llm.Usage{PromptTokens: 10}, Latency: time.Second}, nil
		}
		return llm.Response{Content: "primary", Usage: llm.Usage{PromptTokens: 10}, Latency: 10 * time.Second}, nil
	}}
	h := &Hedged{Client: &llm.Metered{Client: inner, Ledger: ledger}, After: 2 * time.Second, Metrics: res}
	resp, err := h.Complete(llm.Request{Model: llm.ModelGPT4o, Seed: primarySeed})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "backup" {
		t.Fatalf("winner = %q, want backup", resp.Content)
	}
	if resp.Latency != 3*time.Second {
		t.Errorf("winner latency %v, want 3s (2s hedge delay + 1s backup)", resp.Latency)
	}
	if got := ledger.TotalCalls(); got != 2 {
		t.Errorf("ledger booked %d calls, want 2 — the cancelled loser still cost tokens", got)
	}
	if got := ledger.TotalUsage().Total(); got != 20 {
		t.Errorf("ledger billed %d tokens, want both attempts' 20", got)
	}
	snap := res.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1 and 1", snap.Hedges, snap.HedgeWins)
	}
}

func TestHedgedFastPrimaryNoBackup(t *testing.T) {
	inner := &scriptClient{fn: ok(time.Second)}
	h := &Hedged{Client: inner, After: 2 * time.Second}
	resp, err := h.Complete(llm.Request{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inner.count() != 1 {
		t.Errorf("fast primary still hedged: %d calls", inner.count())
	}
	if resp.Latency != time.Second {
		t.Errorf("latency %v, want the primary's 1s", resp.Latency)
	}
}

func TestHedgedBackupRescuesFailedPrimary(t *testing.T) {
	const primarySeed = int64(7)
	backupSeed := llm.SplitSeed(primarySeed, "hedge")
	inner := &scriptClient{fn: func(_ int, req llm.Request) (llm.Response, error) {
		if req.Seed == backupSeed {
			return llm.Response{Content: "backup", Latency: time.Second}, nil
		}
		return llm.Response{Latency: time.Second}, ErrTransient
	}}
	h := &Hedged{Client: inner, After: 30 * time.Second}
	resp, err := h.Complete(llm.Request{Seed: primarySeed})
	if err != nil {
		t.Fatalf("backup should have rescued the failed primary: %v", err)
	}
	if resp.Content != "backup" {
		t.Errorf("winner = %q, want backup", resp.Content)
	}
}

func TestHedgedSlowLosingBackupKeepsPrimary(t *testing.T) {
	const primarySeed = int64(8)
	backupSeed := llm.SplitSeed(primarySeed, "hedge")
	inner := &scriptClient{fn: func(_ int, req llm.Request) (llm.Response, error) {
		if req.Seed == backupSeed {
			return llm.Response{Content: "backup", Latency: 20 * time.Second}, nil
		}
		return llm.Response{Content: "primary", Latency: 5 * time.Second}, nil
	}}
	res := &metrics.Resilience{}
	h := &Hedged{Client: inner, After: 2 * time.Second, Metrics: res}
	resp, err := h.Complete(llm.Request{Seed: primarySeed})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "primary" || resp.Latency != 5*time.Second {
		t.Errorf("got %q/%v, want the primary at 5s (backup would finish at 22s)", resp.Content, resp.Latency)
	}
	snap := res.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 0 {
		t.Errorf("hedges=%d wins=%d, want 1 and 0", snap.Hedges, snap.HedgeWins)
	}
}
