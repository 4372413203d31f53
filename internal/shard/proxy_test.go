package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// replicaStub is a minimal replica endpoint recording what it served.
type replicaStub struct {
	name string
	ts   *httptest.Server
	mu   sync.Mutex
	hits int
	// status overrides the response code (0 = 200 echo).
	status int
}

func newReplicaStub(t *testing.T, name string) *replicaStub {
	t.Helper()
	r := &replicaStub{name: name}
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		r.hits++
		status := r.status
		r.mu.Unlock()
		body, _ := io.ReadAll(req.Body)
		if status != 0 {
			w.WriteHeader(status)
			return
		}
		w.Write([]byte(r.name + ":" + string(body)))
	}))
	t.Cleanup(r.ts.Close)
	return r
}

func (r *replicaStub) setStatus(code int) {
	r.mu.Lock()
	r.status = code
	r.mu.Unlock()
}

func (r *replicaStub) served() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

func proxyOver(stubs ...*replicaStub) (*Proxy, *Ring) {
	ring := NewRing(16)
	urls := make(map[string]string, len(stubs))
	for _, s := range stubs {
		ring.Add(s.name)
		urls[s.name] = s.ts.URL
	}
	return &Proxy{
		Ring:    ring,
		BaseURL: func(n string) string { return urls[n] },
		Client:  http.DefaultClient,
	}, ring
}

// The proxy relays the owner's response verbatim; non-503 statuses,
// including errors, are answers and never re-routed.
func TestProxyRoutesToOwner(t *testing.T) {
	a, b := newReplicaStub(t, "a"), newReplicaStub(t, "b")
	p, ring := proxyOver(a, b)
	key := Fingerprint("cfg", "doc-7")
	owner, _ := ring.Assign(key)
	res, err := p.Do(context.Background(), key, "/v1/verify", []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != owner || res.Hops != 0 || res.Status != 200 {
		t.Fatalf("result = %+v, want owner %q at hop 0", res, owner)
	}
	if got := string(res.Body); got != owner+`:{"x":1}` {
		t.Fatalf("body = %q, not relayed verbatim", got)
	}

	// A 429 from the owner is an answer, not a failover trigger.
	ownerStub := a
	if owner == "b" {
		ownerStub = b
	}
	ownerStub.setStatus(http.StatusTooManyRequests)
	res, err = p.Do(context.Background(), key, "/v1/verify", nil)
	if err != nil || res.Status != http.StatusTooManyRequests || res.Node != owner {
		t.Fatalf("shed relay = %+v err=%v, want 429 from owner", res, err)
	}
}

// A dead owner fails over to the next distinct replica in ring order, and
// the failure is reported so the prober can eject it.
func TestProxyFailoverOnDeadOwner(t *testing.T) {
	a, b, c := newReplicaStub(t, "a"), newReplicaStub(t, "b"), newReplicaStub(t, "c")
	p, ring := proxyOver(a, b, c)
	var failed []string
	p.OnFailure = func(n string) { failed = append(failed, n) }
	key := Fingerprint("cfg", "doc-1")
	order := ring.AssignN(key, 3)
	stubs := map[string]*replicaStub{"a": a, "b": b, "c": c}
	stubs[order[0]].ts.Close() // kill the owner

	res, err := p.Do(context.Background(), key, "/v1/verify", []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != order[1] || res.Hops != 1 {
		t.Fatalf("failover landed on %q hop %d, want successor %q hop 1", res.Node, res.Hops, order[1])
	}
	if len(failed) != 1 || failed[0] != order[0] {
		t.Fatalf("failures reported = %v, want the dead owner %q", failed, order[0])
	}
	if !strings.HasPrefix(string(res.Body), order[1]+":") {
		t.Fatalf("body %q not from successor", res.Body)
	}
}

// A draining owner (503) moves the request instead of surfacing the
// rejection — the drain-aware rebalance path — but when every replica is
// draining the 503 is relayed rather than looping.
func TestProxyDrainRehash(t *testing.T) {
	a, b := newReplicaStub(t, "a"), newReplicaStub(t, "b")
	p, ring := proxyOver(a, b)
	key := Fingerprint("cfg", "doc-2")
	order := ring.AssignN(key, 2)
	stubs := map[string]*replicaStub{"a": a, "b": b}
	stubs[order[0]].setStatus(http.StatusServiceUnavailable)

	res, err := p.Do(context.Background(), key, "/v1/verify", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != order[1] || res.Status != 200 {
		t.Fatalf("drain rehash = %+v, want 200 from %q", res, order[1])
	}

	stubs[order[1]].setStatus(http.StatusServiceUnavailable)
	res, err = p.Do(context.Background(), key, "/v1/verify", nil)
	if err != nil || res.Status != http.StatusServiceUnavailable {
		t.Fatalf("all-draining = %+v err=%v, want relayed 503", res, err)
	}
}

// killingReplica consumes the full request body — so the serve layer on a
// real replica would have admitted and verified the claims — then hijacks the
// connection and kills it without answering. This is the post-delivery
// failure window: the work happened, only the response was lost.
type killingReplica struct {
	ts        *httptest.Server
	mu        sync.Mutex
	processed int
}

func (k *killingReplica) count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.processed
}

func newKillingReplica(t *testing.T) *killingReplica {
	t.Helper()
	k := &killingReplica{}
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body) // the replica received everything
		k.mu.Lock()
		k.processed++
		k.mu.Unlock()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close() // die before writing any response
	}))
	t.Cleanup(k.ts.Close)
	return k
}

// A replica that consumes the request and then dies must NOT be failed over:
// it may have verified the claims and booked their fees, so a retry on the
// ring successor would re-run the work and double-bill it. The proxy
// surfaces ErrAfterDelivery instead; the successor is never contacted.
func TestProxyNoRetryAfterDelivery(t *testing.T) {
	killer := newKillingReplica(t)
	successor := newReplicaStub(t, "b")
	ring := NewRing(16)
	ring.Add("a")
	ring.Add("b")
	urls := map[string]string{"a": killer.ts.URL, "b": successor.ts.URL}
	var failed []string
	p := &Proxy{
		Ring:      ring,
		BaseURL:   func(n string) string { return urls[n] },
		Client:    http.DefaultClient,
		OnFailure: func(n string) { failed = append(failed, n) },
	}

	// Find a key owned by the killing replica so the failover order is
	// killer-then-successor.
	var key []byte
	for i := 0; ; i++ {
		key = Fingerprint("cfg", "doc", string(rune('0'+i%10)), string(rune('a'+i/10)))
		if owner, _ := ring.Assign(key); owner == "a" {
			break
		}
	}

	_, err := p.Do(context.Background(), key, "/v1/verify", []byte(`{"claims":[{"sentence":"s","value":"v"}]}`))
	if err == nil {
		t.Fatal("post-delivery connection kill: want an error, got success")
	}
	if !errors.Is(err, ErrAfterDelivery) {
		t.Fatalf("error = %v, want ErrAfterDelivery", err)
	}
	if got := killer.count(); got != 1 {
		t.Fatalf("owner processed the request %d times, want exactly 1 (no proxy- or transport-level replay)", got)
	}
	if got := successor.served(); got != 0 {
		t.Fatalf("successor served %d request(s), want 0 — retrying delivered work duplicates claims and fees", got)
	}
	// The dead-after-delivery replica still feeds the breaker: it is sick,
	// even though its work must not move.
	if len(failed) != 1 || failed[0] != "a" {
		t.Fatalf("failures reported = %v, want exactly the delivered-to replica", failed)
	}
}

// A connection dying mid-response (status delivered, body truncated) is also
// post-delivery: the response was underway, so the work is done and must not
// be re-run on a successor.
func TestProxyNoRetryOnTruncatedResponse(t *testing.T) {
	var truncated *httptest.Server
	truncated = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Length", "1024")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer truncated.Close()
	successor := newReplicaStub(t, "b")
	ring := NewRing(16)
	ring.Add("a")
	ring.Add("b")
	urls := map[string]string{"a": truncated.URL, "b": successor.ts.URL}
	p := &Proxy{Ring: ring, BaseURL: func(n string) string { return urls[n] }, Client: http.DefaultClient}

	var key []byte
	for i := 0; ; i++ {
		key = Fingerprint("trunc", "doc", string(rune('0'+i%10)), string(rune('a'+i/10)))
		if owner, _ := ring.Assign(key); owner == "a" {
			break
		}
	}
	_, err := p.Do(context.Background(), key, "/v1/verify", []byte("req"))
	if !errors.Is(err, ErrAfterDelivery) {
		t.Fatalf("truncated response error = %v, want ErrAfterDelivery", err)
	}
	if got := successor.served(); got != 0 {
		t.Fatalf("successor served %d request(s) after a truncated response, want 0", got)
	}
}

// A response one byte over the cap is an error, never a cut body: the replica
// answered, so the request stays where it ran (ErrAfterDelivery) and the
// breaker hears a success, not a failure. One at the cap is relayed whole.
func TestProxyOversizeResponseIsAnError(t *testing.T) {
	var size atomic.Int64
	size.Store(maxProxyResponseBytes + 1)
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Write(bytes.Repeat([]byte("x"), int(size.Load())))
	}))
	defer big.Close()
	successor := newReplicaStub(t, "b")
	ring := NewRing(16)
	ring.Add("a")
	ring.Add("b")
	urls := map[string]string{"a": big.URL, "b": successor.ts.URL}
	var failed, succeeded []string
	p := &Proxy{
		Ring:      ring,
		BaseURL:   func(n string) string { return urls[n] },
		Client:    http.DefaultClient,
		OnFailure: func(n string) { failed = append(failed, n) },
		OnSuccess: func(n string) { succeeded = append(succeeded, n) },
	}
	var key []byte
	for i := 0; ; i++ {
		key = Fingerprint("big", "doc", string(rune('0'+i%10)), string(rune('a'+i/10)))
		if owner, _ := ring.Assign(key); owner == "a" {
			break
		}
	}
	res, err := p.Do(context.Background(), key, "/v1/verify/batch", []byte("req"))
	if !errors.Is(err, ErrResponseTooLarge) || !errors.Is(err, ErrAfterDelivery) || res.Body != nil {
		t.Fatalf("oversize response = %d bytes, %v; want no body, ErrResponseTooLarge and ErrAfterDelivery", len(res.Body), err)
	}
	if got := successor.served(); got != 0 {
		t.Errorf("successor served %d request(s) after an oversize answer, want 0", got)
	}
	if len(failed) != 0 || len(succeeded) != 1 || succeeded[0] != "a" {
		t.Errorf("breaker heard failures %v, successes %v; want one success from a", failed, succeeded)
	}

	size.Store(maxProxyResponseBytes)
	res, err = p.Do(context.Background(), key, "/v1/verify/batch", []byte("req"))
	if err != nil || len(res.Body) != maxProxyResponseBytes {
		t.Fatalf("response at the cap = %d bytes, %v; want all %d", len(res.Body), err, maxProxyResponseBytes)
	}
}

// With no live replicas the proxy reports ErrNoReplicas; with all replicas
// dead it returns the last transport error.
func TestProxyExhaustion(t *testing.T) {
	p := &Proxy{Ring: NewRing(8), BaseURL: func(string) string { return "" }}
	if _, err := p.Do(context.Background(), []byte("k"), "/x", nil); err != ErrNoReplicas {
		t.Fatalf("empty ring error = %v, want ErrNoReplicas", err)
	}
	a := newReplicaStub(t, "a")
	p2, _ := proxyOver(a)
	a.ts.Close()
	if _, err := p2.Do(context.Background(), Fingerprint("k"), "/x", nil); err == nil {
		t.Fatal("all replicas dead, want an error")
	}
}
