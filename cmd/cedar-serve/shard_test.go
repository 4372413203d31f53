package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/trace"
)

// spanSink accumulates the per-micro-batch trace spans newServer hands out,
// so the identity matrix can compare a replica's full verification trace.
type spanSink struct {
	mu    sync.Mutex
	spans []trace.Span
}

func (s *spanSink) add(spans []trace.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, spans...)
	s.mu.Unlock()
}

// take returns the spans accumulated since the last take.
func (s *spanSink) take() []trace.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

// shardReplica is one in-process replica: a full cedar-serve stack (own
// System, own profiling pass) behind a real loopback listener.
type shardReplica struct {
	srv  *serve.Server
	ts   *httptest.Server
	sink *spanSink
}

// shardTier is the in-process multi-replica fixture of the identity matrix
// and the shard tests: a coordinator plus n replicas on loopback, all sharing one
// database fixture and seed — the topology `cedar-serve -coordinator`
// assembles from separate processes.
type shardTier struct {
	coord    *serve.Coordinator
	coordTS  *httptest.Server
	replicas []*shardReplica
	opts     *serveOptions
}

func bootShardTier(t *testing.T, csvPath string, n int, tune func(*serveOptions)) *shardTier {
	t.Helper()
	tier := &shardTier{}
	for i := 0; i < n; i++ {
		o := testOptions(t, csvPath)
		o.BatchWait = -1
		if tune != nil {
			tune(o)
		}
		sink := &spanSink{}
		srv, closeSys, err := newServer(o, sink.add)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		rep := &shardReplica{srv: srv, ts: ts, sink: sink}
		tier.replicas = append(tier.replicas, rep)
		t.Cleanup(func() {
			ctx, cancel := contextWithTimeout(10 * time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			_ = closeSys()
		})
	}
	o := testOptions(t, csvPath)
	if tune != nil {
		tune(o)
	}
	for _, rep := range tier.replicas {
		o.Replicas = append(o.Replicas, rep.ts.URL)
	}
	o.ProbeInterval = 20 * time.Millisecond
	coord, err := newCoordinator(o)
	if err != nil {
		t.Fatal(err)
	}
	tier.coord = coord
	tier.coordTS = httptest.NewServer(coord)
	tier.opts = o
	t.Cleanup(func() {
		tier.coordTS.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
		for _, rep := range tier.replicas {
			rep.ts.Close()
		}
	})
	return tier
}

// shardWorkload builds W documents over the airlines fixture with a mix of
// correct and incorrect claims, so the quality partition under comparison is
// non-trivial (some verified-correct, some not).
func shardWorkload(w int) []serve.DocumentInput {
	out := make([]serve.DocumentInput, 0, w)
	for i := 0; i < w; i++ {
		req := serve.DocumentInput{
			DocID: fmt.Sprintf("shard-doc-%d", i),
			Claims: []serve.ClaimInput{
				{ID: "good", Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.", Value: "2"},
				{ID: "bad", Sentence: "The highest fatalities between 2000 and 2014 recorded was 999.", Value: "999"},
			},
		}
		if i%2 == 0 {
			req.Claims = append(req.Claims, serve.ClaimInput{
				ID: "agg", Sentence: "Aeroflot logged 76 incidents between 1985 and 1999.", Value: "76"})
		}
		out = append(out, req)
	}
	return out
}

// postShardVerify submits one document through the coordinator. It runs on
// workload goroutines, so failures use t.Error (goroutine-safe) and surface
// as a zero status code for the test goroutine to act on.
func postShardVerify(t *testing.T, client *http.Client, base string, req serve.DocumentInput) (serve.VerifyResponse, int) {
	t.Helper()
	var out serve.VerifyResponse
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return out, 0
	}
	resp, err := client.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return out, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
			return out, 0
		}
	}
	return out, resp.StatusCode
}

// runShardWorkload pushes the whole workload through the coordinator
// concurrently and returns verdicts keyed by document ID.
func runShardWorkload(t *testing.T, tier *shardTier, reqs []serve.DocumentInput) map[string][]serve.ClaimResult {
	t.Helper()
	client := &http.Client{Timeout: 60 * time.Second}
	verdicts := make([]serve.VerifyResponse, len(reqs))
	codes := make([]int, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req serve.DocumentInput) {
			defer wg.Done()
			verdicts[i], codes[i] = postShardVerify(t, client, tier.coordTS.URL, req)
		}(i, req)
	}
	wg.Wait()
	out := make(map[string][]serve.ClaimResult, len(reqs))
	for i, v := range verdicts {
		if codes[i] != http.StatusOK {
			t.Fatalf("document %s answered %d, want 200", reqs[i].DocID, codes[i])
		}
		out[v.DocID] = v.Claims
	}
	return out
}

// TestShardFailoverChaos kills a replica mid-load — listener and all live
// connections — and asserts zero lost and zero duplicated claims: every
// document still gets exactly one 200 response, and the verdicts are
// bit-identical to an undisturbed single-shard run (re-verification on the
// failover successor is deterministic).
func TestShardFailoverChaos(t *testing.T) {
	csvPath := writeCSVFixture(t)
	reqs := shardWorkload(12)

	baseline := runShardWorkload(t, bootShardTier(t, csvPath, 1, nil), reqs)

	tier := bootShardTier(t, csvPath, 3, func(o *serveOptions) {
		o.BatchWait = 10 * time.Millisecond // linger so load overlaps the kill
	})
	// Pick the victim: the replica owning the most documents, so the kill
	// lands on in-flight and future traffic alike.
	dbName := cliutil.TableName(csvPath)
	rk := routeKeyFor(tier.opts, dbName)
	owned := map[string]int{}
	for _, req := range reqs {
		owner, ok := tier.coord.Owner(rk(req.DocID, req.Claims))
		if !ok {
			t.Fatal("ring empty")
		}
		owned[owner]++
	}
	victim := tier.replicas[0]
	for _, rep := range tier.replicas {
		if owned[rep.ts.URL] > owned[victim.ts.URL] {
			victim = rep
		}
	}
	if owned[victim.ts.URL] == 0 {
		t.Fatal("victim owns no documents; chaos test would be vacuous")
	}

	client := &http.Client{Timeout: 60 * time.Second}
	verdicts := make([]serve.VerifyResponse, len(reqs))
	codes := make([]int, len(reqs))
	var wg sync.WaitGroup
	fire := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// A request the dead replica had already accepted surfaces
				// as 502 replica_lost rather than a silent re-run on the
				// successor: the retry decision belongs to the caller.
				// This caller retries, so no claim is lost.
				for try := 0; try < 20; try++ {
					verdicts[i], codes[i] = postShardVerify(t, client, tier.coordTS.URL, reqs[i])
					if codes[i] != http.StatusBadGateway {
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}(i)
		}
	}
	// First wave in flight, then the kill: live connections die mid-request
	// and the listener stops accepting. Undelivered in-flight requests fail
	// over transparently, delivered ones come back 502 replica_lost and are
	// retried above, and the second wave must route around the corpse.
	fire(0, len(reqs)/2)
	time.Sleep(5 * time.Millisecond) // let some of the wave reach replicas
	victim.ts.CloseClientConnections()
	victim.ts.Listener.Close()
	fire(len(reqs)/2, len(reqs))
	wg.Wait()

	got := make(map[string][]serve.ClaimResult, len(reqs))
	for i := range reqs {
		if codes[i] != http.StatusOK {
			t.Fatalf("document %s answered %d after replica kill, want 200 (lost claim)", reqs[i].DocID, codes[i])
		}
		if _, dup := got[verdicts[i].DocID]; dup {
			t.Fatalf("document %s answered twice (duplicated claim)", verdicts[i].DocID)
		}
		got[verdicts[i].DocID] = verdicts[i].Claims
	}
	if !reflect.DeepEqual(baseline, got) {
		t.Error("verdicts after mid-load replica kill differ from the undisturbed baseline")
	}

	// The tier noticed: the victim was ejected from the ring (breaker trip)
	// after traffic and probes fed its failures.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		healthy := false
		for _, rep := range tier.coord.Replicas() {
			if rep.URL == victim.ts.URL && rep.Healthy {
				healthy = true
			}
		}
		if !healthy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("killed replica still healthy on the coordinator after 5s")
}

// TestShardCoordinatorReadsNoData: a coordinator takes only the database's
// name from its flags, the default document ID, and opens no -csv, so one
// it could not read does not stop it.
func TestShardCoordinatorReadsNoData(t *testing.T) {
	o := testOptions(t, filepath.Join(t.TempDir(), "absent", "airlines.csv"))
	o.Replicas = []string{"http://127.0.0.1:1"}
	coord, err := newCoordinator(o)
	if err != nil {
		t.Fatalf("coordinator over an unreadable -csv: %v", err)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShardReplicaSelfRegistration covers the -replica-of lifecycle helpers:
// a replica joins a live coordinator's ring, serves its share, and leaves on
// drain so new work rehashes to the survivors.
func TestShardReplicaSelfRegistration(t *testing.T) {
	csvPath := writeCSVFixture(t)
	tier := bootShardTier(t, csvPath, 1, nil)

	// A second replica registers itself the way run() does with -replica-of.
	o := testOptions(t, csvPath)
	o.BatchWait = -1
	srv, closeSys, err := newServer(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = closeSys()
	})
	if err := registerReplica(context.Background(), tier.coordTS.URL, ts.URL); err != nil {
		t.Fatal(err)
	}
	roster := tier.coord.Replicas()
	if len(roster) != 2 {
		t.Fatalf("roster after self-registration = %+v, want 2 replicas", roster)
	}

	if err := deregisterReplica(context.Background(), tier.coordTS.URL, ts.URL); err != nil {
		t.Fatal(err)
	}
	if roster = tier.coord.Replicas(); len(roster) != 1 {
		t.Fatalf("roster after deregistration = %+v, want 1 replica", roster)
	}

	// advertiseURL pins the -addr -> registration URL derivation.
	for in, want := range map[string]string{
		":8080":                  "http://127.0.0.1:8080",
		"10.0.0.5:8080":          "http://10.0.0.5:8080",
		"http://10.0.0.5:8080":   "http://10.0.0.5:8080",
		"https://replica-1:8443": "https://replica-1:8443",
	} {
		if got := advertiseURL(in); got != want {
			t.Errorf("advertiseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// A coordinator that accepts the connection and never answers must not hold a
// replica's startup or — worse — its SIGTERM drain: registration and
// deregistration give up when their context's deadline (bounded by
// -drain-timeout in run) passes.
func TestShardReplicaMembershipCallsHonorDeadline(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // never answers while the test runs
	}))
	defer hung.Close()
	defer close(release)

	for name, call := range map[string]func(context.Context, string, string) error{
		"register":   registerReplica,
		"deregister": deregisterReplica,
	} {
		ctx, cancel := contextWithTimeout(100 * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- call(ctx, hung.URL, "http://127.0.0.1:1") }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s against a hung coordinator returned nil, want a deadline error", name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s against a hung coordinator did not return by its deadline", name)
		}
		cancel()
	}
}
