package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/claim"
	"repro/internal/fee"
	"repro/internal/sqldb"
)

// countingBackend tags claims like tagBackend and additionally counts how
// many claims and dollars it has booked, so tests can prove work ran exactly
// once.
type countingBackend struct {
	tag     string
	mu      sync.Mutex
	claims  int
	dollars float64
}

func (b *countingBackend) VerifyDocuments(docs []*claim.Document) (RunStats, error) {
	n := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			c.Result.Verified = true
			c.Result.Correct = true
			c.Result.Method = b.tag
			n++
		}
	}
	st := RunStats{Claims: n, Dollars: 0.01 * float64(n), Calls: n}
	b.mu.Lock()
	b.claims += n
	b.dollars += st.Dollars
	b.mu.Unlock()
	return st, nil
}

func (b *countingBackend) totals() (int, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.claims, b.dollars
}

// A coordinator stream routes each document to its ring owner and relays the
// verdict events back in arrival order, with stream-global indices and
// summed summary.
func TestCoordinatorStreamRoutesAndMergesInOrder(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	tags := map[string]string{a.ts.URL: "replica-a", b.ts.URL: "replica-b"}

	docA, docB := docOwnedBy(t, c, a.ts.URL), docOwnedBy(t, c, b.ts.URL)
	ids := []string{docA, docB, docA + "-x"}
	var lines []string
	for _, id := range ids {
		lines = append(lines, streamDocLine(id, "1"))
	}
	resp := postStream(t, ts.URL, strings.Join(lines, "\n")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(errs) != 0 || len(verdicts) != 3 {
		t.Fatalf("stream = %d verdicts %d errors, want 3/0: %+v", len(verdicts), len(errs), errs)
	}
	for i, id := range ids {
		ev := verdicts[i]
		if ev.DocID != id || ev.Index != i {
			t.Errorf("verdict[%d] = doc %q index %d, want %q/%d (arrival order)", i, ev.DocID, ev.Index, id, i)
		}
		owner, _ := c.Owner(testRouteKey(id, nil))
		if ev.Claim == nil || ev.Claim.Method != tags[owner] {
			t.Errorf("doc %q served by %v, want owner %q", id, ev.Claim, tags[owner])
		}
	}
	// Calls and fees are exact: 1 call at $0.01 per claim, booked once even
	// when two relayed documents coalesce into one replica micro-batch.
	if sum.Docs != 3 || sum.Claims != 3 || sum.Calls != 3 ||
		sum.Dollars != 30_000_000 {
		t.Errorf("summary = %+v, want docs=3 claims=3 calls=3 dollars=0.03", sum)
	}
}

// The coordinator merges every replica's review queue into one
// deterministically ranked list, and broadcasts resolutions so the whole
// tier agrees with the human — idempotently.
func TestCoordinatorReviewFanoutAndResolve(t *testing.T) {
	a := newReplica(t, Config{Backend: BackendFunc(reviewBackend), BatchWait: -1})
	b := newReplica(t, Config{Backend: BackendFunc(reviewBackend), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)

	docA, docB := docOwnedBy(t, c, a.ts.URL), docOwnedBy(t, c, b.ts.URL)
	body := streamDocLine(docA, "fail") + "\n" + streamDocLine(docB, "3") + "\n"
	verdicts, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, body)))
	if len(errs) != 0 || len(verdicts) != 2 || sum.Reviewed != 2 {
		t.Fatalf("stream = %+v errors %+v reviewed %d, want 2 reviewed verdicts", verdicts, errs, sum.Reviewed)
	}
	if verdicts[0].ReviewID == "" || verdicts[1].ReviewID == "" {
		t.Fatal("review IDs not preserved through the coordinator relay")
	}

	// Merged list: the failed claim (disagreement 1.0) outranks the
	// three-attempt claim (2/3), whichever replica holds it.
	resp, err := http.Get(ts.URL + "/v1/review")
	if err != nil {
		t.Fatal(err)
	}
	var list ReviewListResponse
	decodeInto(t, resp, &list)
	if len(list.Items) != 2 || list.Stats.Depth != 2 {
		t.Fatalf("merged review list = %+v, want both replicas' items", list)
	}
	if list.Items[0].ID != verdicts[0].ReviewID || list.Items[0].Disagreement != 1 {
		t.Fatalf("merged head = %+v, want the failed claim first", list.Items[0])
	}

	// Resolution through the coordinator reaches the replica that holds the
	// item; resolving again is idempotent; unknown IDs 404.
	id := verdicts[1].ReviewID
	r1, err := http.Post(ts.URL+"/v1/review/"+id, "application/json",
		strings.NewReader(`{"resolution":"confirmed","note":"lgtm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("resolve via coordinator: status %d", r1.StatusCode)
	}
	var resolved map[string]any
	decodeInto(t, r1, &resolved)
	if resolved["resolution"] != "confirmed" {
		t.Fatalf("resolved = %+v", resolved)
	}
	r2, err := http.Post(ts.URL+"/v1/review/"+id, "application/json",
		strings.NewReader(`{"resolution":"overturned"}`))
	if err != nil {
		t.Fatal(err)
	}
	var again map[string]any
	decodeInto(t, r2, &again)
	if again["resolution"] != "confirmed" {
		t.Fatalf("re-resolve flipped the verdict: %+v", again)
	}
	r3, err := http.Post(ts.URL+"/v1/review/ffffffffffffffff", "application/json",
		strings.NewReader(`{"resolution":"confirmed"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id via coordinator: status %d", r3.StatusCode)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/review")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &list)
	if len(list.Items) != 1 || list.Stats.Resolved != 1 {
		t.Fatalf("after resolve: %+v, want one pending one resolved", list)
	}
}

// killingReplicaServer wraps a real replica Server: after answering its
// first spare verification requests, it runs each later one to completion
// against the inner backend — claims verified, fees booked — and then the
// connection dies without a byte of response. This is the worst
// post-delivery failure: work done, answer lost.
func killingReplicaServer(t *testing.T, inner *Server, spare int32) *httptest.Server {
	t.Helper()
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || posts.Add(1) <= spare {
			inner.ServeHTTP(w, r) // healthz etc. answer normally
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("killing replica read: %v", err)
			return
		}
		req := httptest.NewRequest(r.Method, r.URL.String(), strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req) // the work happens — and is billed
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("killing replica: no hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close() // die after delivery, before any response
	}))
	t.Cleanup(ts.Close)
	return ts
}

// The duplicate-work regression, end to end at the claims-and-fees level: a
// replica that dies after receiving (and running) a streamed request must
// NOT be failed over — the coordinator reports replica_lost and the ring
// successor never re-executes the claims, so fees are booked exactly once.
func TestCoordinatorStreamNoDuplicateWorkAfterReplicaLoss(t *testing.T) {
	killerBackend := &countingBackend{tag: "killer"}
	killerSrv, err := New(Config{Backend: killerBackend, DB: sqldb.NewDatabase("testdb"), BatchWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = killerSrv.Shutdown(ctx)
	})
	killerTS := killingReplicaServer(t, killerSrv, 0)

	successorBackend := &countingBackend{tag: "successor"}
	successor := newReplica(t, Config{Backend: successorBackend, BatchWait: -1})

	c, ts := newTestCoordinator(t, CoordinatorConfig{Attempts: 3},
		&replicaFixture{srv: killerSrv, ts: killerTS}, successor)

	docID := docOwnedBy(t, c, killerTS.URL)
	resp := postStream(t, ts.URL, streamDocLine(docID, "1")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream errors are in-band)", resp.StatusCode)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(verdicts) != 0 || sum.Docs != 0 {
		t.Fatalf("got verdicts %+v summary %+v from a lost replica", verdicts, sum)
	}
	if len(errs) != 1 || errs[0].Error == nil || errs[0].Error.Code != CodeReplicaLost {
		t.Fatalf("errors = %+v, want one replica_lost", errs)
	}

	// The claims ran exactly once, on the replica that died; the successor
	// never saw them and no fee was booked twice.
	kc, kd := killerBackend.totals()
	sc, sd := successorBackend.totals()
	if kc != 1 {
		t.Errorf("killer backend verified %d claims, want 1 (work delivered before death)", kc)
	}
	if sc != 0 || sd != 0 {
		t.Errorf("successor backend verified %d claims ($%v): post-delivery failure was retried", sc, sd)
	}
	if want := 0.01; kd != want {
		t.Errorf("fees booked = $%v, want $%v exactly once", kd, want)
	}

	// The unary route refuses the same retry, with the HTTP-level 502.
	uresp := postVerify(t, ts.URL, verifyBody(docID))
	if uresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unary via lost replica: status %d, want 502", uresp.StatusCode)
	}
	if code := errorCode(t, uresp); code != CodeReplicaLost {
		t.Fatalf("unary error code = %q, want %q", code, CodeReplicaLost)
	}
	if kc, _ := killerBackend.totals(); kc != 2 {
		t.Errorf("killer backend after unary = %d claims, want 2", kc)
	}
	if sc, _ := successorBackend.totals(); sc != 0 {
		t.Errorf("successor re-executed the unary claims: %d", sc)
	}
}

// A pre-delivery failure still fails over: a replica that is simply down
// routes around, and the stream completes on the successor.
func TestCoordinatorStreamFailsOverDeadReplica(t *testing.T) {
	deadTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok") // healthy at registration...
	}))
	successorBackend := &countingBackend{tag: "successor"}
	successor := newReplica(t, Config{Backend: successorBackend, BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{Attempts: 3},
		&replicaFixture{srv: successor.srv, ts: deadTS}, successor)

	docID := docOwnedBy(t, c, deadTS.URL)
	deadTS.Close() // ...but gone before the request: connection refused, nothing delivered
	resp := postStream(t, ts.URL, streamDocLine(docID, "1")+"\n")
	verdicts, errs, sum := splitEvents(t, readEvents(t, resp))
	if len(errs) != 0 || len(verdicts) != 1 || sum.Docs != 1 {
		t.Fatalf("failover stream = %d verdicts %+v, want the successor's verdict", len(verdicts), errs)
	}
	if verdicts[0].Claim.Method != "successor" {
		t.Errorf("served by %q, want successor", verdicts[0].Claim.Method)
	}
	if sc, _ := successorBackend.totals(); sc != 1 {
		t.Errorf("successor verified %d claims, want 1", sc)
	}
}

// A draining owner refuses a whole exchange with 503 before reading it, so
// every document on it moves to its ring successor; a document with no
// replica left after the draining one gets the refusal itself.
func TestCoordinatorStreamDrainingOwnerFailsOver(t *testing.T) {
	drainingTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			fmt.Fprintln(w, "ok")
			return
		}
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
	}))
	t.Cleanup(drainingTS.Close)
	successorBackend := &countingBackend{tag: "successor"}
	successor := newReplica(t, Config{Backend: successorBackend, BatchWait: -1})
	for _, tc := range []struct {
		attempts int
		want     string // the method of the verdict, or the error code
	}{{2, "successor"}, {1, CodeDraining}} {
		c, ts := newTestCoordinator(t, CoordinatorConfig{Attempts: tc.attempts, ProbeInterval: time.Hour},
			&replicaFixture{srv: successor.srv, ts: drainingTS}, successor)
		ids := docsOwnedBy(t, c, drainingTS.URL, 2)
		body := streamDocLine(ids[0], "1") + "\n" + streamDocLine(ids[1], "2") + "\n"
		verdicts, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, body)))
		var got []string
		for _, ev := range verdicts {
			got = append(got, ev.Claim.Method)
		}
		for _, ev := range errs {
			got = append(got, ev.Error.Code)
		}
		if len(got) != 2 || got[0] != tc.want || got[1] != tc.want {
			t.Errorf("attempts %d: documents answered %v, want %s for both (summary %+v)", tc.attempts, got, tc.want, sum)
		}
	}
	if sc, _ := successorBackend.totals(); sc != 2 {
		t.Errorf("successor verified %d claims, want the 2 moved to it", sc)
	}
}

// docsOwnedBy hunts for n document IDs the ring assigns to the given replica.
func docsOwnedBy(t *testing.T, c *Coordinator, replicaURL string, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < 10000 && len(ids) < n; i++ {
		docID := fmt.Sprintf("doc-%d", i)
		if owner, ok := c.Owner(testRouteKey(docID, nil)); ok && owner == replicaURL {
			ids = append(ids, docID)
		}
	}
	if len(ids) < n {
		t.Fatalf("found %d document IDs routed to %s, want %d", len(ids), replicaURL, n)
	}
	return ids
}

// streamSessions reads how many stream requests a server has received.
func streamSessions(t *testing.T, url string) int64 {
	t.Helper()
	met := fetchCoordMetrics(t, url)
	if met.Stream == nil {
		t.Fatalf("%s metrics have no stream section", url)
	}
	return met.Stream.Sessions
}

// Documents read together reach their owner together, not one exchange
// each: twelve documents over three replicas, read before the session's
// reader first blocks, are three replica exchanges, each replica sees one
// stream, and the verdicts still come back in session order.
func TestCoordinatorStreamOneExchangePerOwner(t *testing.T) {
	reps := []*replicaFixture{
		newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1}),
		newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1}),
		newReplica(t, Config{Backend: tagBackend("replica-c"), BatchWait: -1}),
	}
	c, ts := newTestCoordinator(t, CoordinatorConfig{StreamWindow: 16}, reps...)
	owned := make([][]string, len(reps))
	for i, rep := range reps {
		owned[i] = docsOwnedBy(t, c, rep.ts.URL, 4)
	}
	var ids, lines []string
	for round := 0; round < 4; round++ {
		for i := range reps {
			ids = append(ids, owned[i][round])
			lines = append(lines, streamDocLine(owned[i][round], "1"))
		}
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, strings.Join(lines, "\n")+"\n")))
	if len(errs) != 0 || len(verdicts) != len(ids) {
		t.Fatalf("stream = %d verdicts %+v errors, want %d verdicts", len(verdicts), errs, len(ids))
	}
	for i, ev := range verdicts {
		if ev.DocID != ids[i] || ev.Index != i {
			t.Errorf("verdict[%d] = doc %q index %d, want %q/%d", i, ev.DocID, ev.Index, ids[i], i)
		}
	}
	if sum.Docs != 12 || sum.Claims != 12 || sum.Calls != 12 || sum.Dollars != 120_000_000 {
		t.Errorf("summary = %+v, want docs=claims=calls=12 dollars=0.12", sum)
	}
	if routed := fetchCoordMetrics(t, ts.URL).Shard.Routed; routed != int64(len(reps)) {
		t.Errorf("routed = %d replica exchanges, want %d: one per owner", routed, len(reps))
	}
	for _, rep := range reps {
		if n := streamSessions(t, rep.ts.URL); n != 1 {
			t.Errorf("replica %s saw %d streams, want 1", rep.ts.URL, n)
		}
	}
}

// The coordinator answers a document a replica would refuse itself, so one
// bad document cannot end the stream it shares: the good documents around it
// on the same replica are verified, and the bad ones get their own
// bad_request naming their place in the session.
func TestCoordinatorStreamBadDocumentAnsweredAlone(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	ids := docsOwnedBy(t, c, a.ts.URL, 4)
	body := streamDocLine(ids[0], "1") + "\n" +
		fmt.Sprintf(`{"doc_id":%q,"claims":[{"sentence":"The value is 1.","value":"7"}]}`, ids[1]) + "\n" +
		fmt.Sprintf(`{"doc_id":%q,"claims":[]}`, ids[2]) + "\n" +
		streamDocLine(ids[3], "2") + "\n"
	verdicts, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, body)))
	if len(verdicts) != 2 || verdicts[0].DocID != ids[0] || verdicts[1].DocID != ids[3] || verdicts[1].Index != 3 {
		t.Fatalf("verdicts = %+v, want documents 0 and 3", verdicts)
	}
	want := []string{
		`stream document 1: claim: value "7" does not occur in sentence "The value is 1."`,
		fmt.Sprintf(`stream document 2: document %q has no claims`, ids[2]),
	}
	if len(errs) != len(want) {
		t.Fatalf("errors = %+v, want %d bad_request", errs, len(want))
	}
	for i, ev := range errs {
		if ev.DocID != ids[i+1] || ev.Index != i+1 || ev.Error == nil || ev.Error.Code != CodeBadRequest || ev.Error.Message != want[i] {
			t.Errorf("error[%d] = %+v %+v, want bad_request %q for %s", i, ev, ev.Error, want[i], ids[i+1])
		}
	}
	if sum.Docs != 2 || sum.Claims != 2 || sum.Calls != 2 {
		t.Errorf("summary = %+v, want the two good documents", sum)
	}
	if n := streamSessions(t, a.ts.URL); n != 1 {
		t.Errorf("owner saw %d streams, want the one it shares", n)
	}
}

// An owner lost mid-session keeps the old contract: the document it had
// answered keeps its verdict and its fee; the two it was running when it died
// get replica_lost and are never re-run; the document read after its loss is
// verified on the ring successor; no claim is verified twice, and nothing
// outlives the session.
func TestCoordinatorStreamOwnerLossMidSession(t *testing.T) {
	dyingBackend := &countingBackend{tag: "dying"}
	dyingSrv, err := New(Config{Backend: dyingBackend, DB: sqldb.NewDatabase("testdb"), BatchWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = dyingSrv.Shutdown(ctx)
	})
	dyingTS := killingReplicaServer(t, dyingSrv, 1)
	successorBackend := &countingBackend{tag: "successor"}
	successor := newReplica(t, Config{Backend: successorBackend, BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{ProbeInterval: time.Hour},
		&replicaFixture{srv: dyingSrv, ts: dyingTS}, successor)
	ids := docsOwnedBy(t, c, dyingTS.URL, 4)
	check := checkNoLeak(t)

	pr, pw := io.Pipe()
	go io.WriteString(pw, streamDocLine(ids[0], "1")+"\n")
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	next := func() StreamEvent {
		t.Helper()
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	if ev := next(); ev.Event != "verdict" || ev.Index != 0 || ev.Claim == nil || ev.Claim.Method != "dying" {
		t.Fatalf("event 0 = %+v, want the owner's verdict", ev)
	}
	// The next exchange kills the owner after it has run both documents.
	go io.WriteString(pw, streamDocLine(ids[1], "2")+"\n"+streamDocLine(ids[2], "3")+"\n")
	for i := 1; i <= 2; i++ {
		if ev := next(); ev.Event != "error" || ev.Index != i || ev.Error == nil || ev.Error.Code != CodeReplicaLost {
			t.Fatalf("event %d = %+v, want replica_lost for the delivered document", i, ev)
		}
	}
	// Only now is the last document written: its owner is gone for good, so it
	// goes to the successor.
	dyingTS.Close()
	io.WriteString(pw, streamDocLine(ids[3], "4")+"\n")
	pw.Close()
	var evs []StreamEvent
	for dec.More() {
		evs = append(evs, next())
	}
	resp.Body.Close()
	verdicts, errs, sum := splitEvents(t, evs)
	if len(errs) != 0 || len(verdicts) != 1 || verdicts[0].Index != 3 || verdicts[0].Claim.Method != "successor" {
		t.Fatalf("after the loss: verdicts %+v errors %+v, want document 3 verified by the successor", verdicts, errs)
	}
	// The fee of the document relayed before the loss is booked, as the
	// per-document relay booked it.
	if sum.Docs != 2 || sum.Claims != 2 || sum.Calls != 2 || sum.Dollars != 20_000_000 {
		t.Errorf("summary = %+v, want documents 0 and 3: docs=claims=calls=2 dollars=0.02", sum)
	}
	if kc, _ := dyingBackend.totals(); kc != 3 {
		t.Errorf("dying replica verified %d claims, want the 3 delivered to it", kc)
	}
	if sc, _ := successorBackend.totals(); sc != 1 {
		t.Errorf("successor verified %d claims, want only the undelivered one", sc)
	}
	check()
}

// When the session's deadline cuts it short, what was relayed keeps its fee:
// the summary books every exchange that ended, and only the document cut off
// gets an error — even with the client's body still open at the deadline.
func TestCoordinatorStreamDeadlineKeepsRelayedFees(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: &gatedBackend{gate: gate}, BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{RequestTimeout: 300 * time.Millisecond, ProbeInterval: time.Hour}, a, b)
	idA, idB := docOwnedBy(t, c, a.ts.URL), docOwnedBy(t, c, b.ts.URL)
	check := checkNoLeak(t)

	pr, pw := io.Pipe()
	go io.WriteString(pw, streamDocLine(idA, "1")+"\n"+streamDocLine(idB, "2")+"\n")
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	var evs []StreamEvent
	for i := 0; i < 2; i++ {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// Document 1's error came at the deadline; only now does the body end.
	pw.Close()
	evs = append(evs, readEvents(t, resp)...)
	release()
	verdicts, errs, sum := splitEvents(t, evs)
	if len(verdicts) != 1 || verdicts[0].Index != 0 || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("verdicts %+v errors %+v, want document 0 verified and document 1 cut off", verdicts, errs)
	}
	if sum.Docs != 1 || sum.Calls != 1 || sum.Dollars != 10_000_000 {
		t.Errorf("summary = %+v, want document 0's fee: docs=calls=1 dollars=0.01", sum)
	}
	check()
}

// A session's exchanges with one replica never overlap, so no micro-batch
// is in two of them and their summaries add up: a document read while its
// owner still lingers over the previous one's batch waits for that exchange
// to end instead of joining the batch, and the fee is booked once.
func TestCoordinatorStreamExchangesNeverShareABatch(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: 200 * time.Millisecond})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	ids := docsOwnedBy(t, c, a.ts.URL, 2)

	pr, pw := io.Pipe()
	type posted struct {
		resp *http.Response
		err  error
	}
	answer := make(chan posted, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", pr)
		answer <- posted{resp, err}
	}()
	io.WriteString(pw, streamDocLine(ids[0], "1")+"\n")
	// The second document is read while the first one's batch lingers.
	waitFor(t, func() bool { return streamSessions(t, a.ts.URL) == 1 }, "the first exchange to reach its owner")
	io.WriteString(pw, streamDocLine(ids[1], "2")+"\n")
	pw.Close()
	got := <-answer
	if got.err != nil {
		t.Fatal(got.err)
	}
	verdicts, errs, sum := splitEvents(t, readEvents(t, got.resp))
	if len(errs) != 0 || len(verdicts) != 2 {
		t.Fatalf("verdicts %+v errors %+v, want both documents verified", verdicts, errs)
	}
	if sum.Docs != 2 || sum.Calls != 2 || sum.Dollars != 20_000_000 {
		t.Errorf("summary = %+v, want docs=calls=2 dollars=0.02", sum)
	}
	if n := streamSessions(t, a.ts.URL); n != 2 {
		t.Errorf("owner saw %d streams, want the two exchanges", n)
	}
}

// A client that disconnects mid-session closes every owner stream: the
// replicas finish what they admitted and no goroutine of either tier
// outlives the session.
func TestCoordinatorStreamDisconnectLeaksNothing(t *testing.T) {
	gated := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	a := newReplica(t, Config{Backend: gated, BatchWait: -1, MaxBatch: 1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{ProbeInterval: time.Hour}, a, b)
	idsA, idsB := docsOwnedBy(t, c, a.ts.URL, 2), docsOwnedBy(t, c, b.ts.URL, 1)
	check := checkNoLeak(t)

	pr, pw := io.Pipe()
	go io.WriteString(pw, streamDocLine(idsA[0], "1")+"\n"+streamDocLine(idsB[0], "2")+"\n"+streamDocLine(idsA[1], "3")+"\n")
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	<-gated.entered // the first document's batch is held on its owner
	cancel()
	pw.Close()
	<-done
	close(gated.gate)
	waitFor(t, func() bool { return len(gated.batchSizes()) > 0 }, "the owner to finish the batch it admitted")
	check()
}

// feeBackend bills each claim by its sentence length in microdollars, so a
// batch's fee depends on what it carried.
func feeBackend(docs []*claim.Document) (RunStats, error) {
	st := RunStats{}
	var total fee.Fee
	for _, d := range docs {
		for _, c := range d.Claims {
			c.Result.Verified, c.Result.Correct, c.Result.Method = true, true, "fee"
			st.Claims++
			st.Calls += 1 + len(c.Sentence)%3
			total += fee.Fee(len(c.Sentence)) * 1000
		}
	}
	st.Dollars = total.Dollars()
	return st, nil
}

// The session's fee summary is what the per-document relay booked: over a
// fixed-seed session, the summary's dollars and calls equal the sum of each
// document streamed alone to its owner.
func TestCoordinatorStreamFeesMatchPerDocumentRelay(t *testing.T) {
	var reps []*replicaFixture
	for i := 0; i < 3; i++ {
		reps = append(reps, newReplica(t, Config{Backend: BackendFunc(feeBackend), BatchWait: -1}))
	}
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, reps...)
	r := rand.New(rand.NewSource(29))
	var lines []string
	for i := 0; i < 16; i++ {
		var values []string
		for k := 0; k <= r.Intn(3); k++ {
			values = append(values, fmt.Sprint(r.Intn(100000)))
		}
		lines = append(lines, streamDocLine(fmt.Sprintf("fee-doc-%d", r.Intn(1e6)), values...))
	}
	_, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, strings.Join(lines, "\n")+"\n")))
	if len(errs) != 0 {
		t.Fatalf("session errors: %+v", errs)
	}

	var want StreamSummary
	for _, line := range lines {
		var in DocumentInput
		if err := json.Unmarshal([]byte(line), &in); err != nil {
			t.Fatal(err)
		}
		owner, _ := c.Owner(testRouteKey(in.DocID, nil))
		_, errs, alone := splitEvents(t, readEvents(t, postStream(t, owner, line+"\n")))
		if len(errs) != 0 {
			t.Fatalf("document %s alone: %+v", in.DocID, errs)
		}
		want.Docs += alone.Docs
		want.Claims += alone.Claims
		want.Dollars += alone.Dollars
		want.Calls += alone.Calls
	}
	if sum.Docs != want.Docs || sum.Claims != want.Claims || sum.Dollars != want.Dollars || sum.Calls != want.Calls {
		t.Errorf("session summary = %+v, per-document relay booked %+v", sum, want)
	}
}

// The coordinator forwards each document's bytes as the client sent them and
// adds none. A re-encoding escapes every '<' to six bytes, and a separator
// added per document is a byte each, so these sessions — one byte under the
// body cap, all on one owner, with the client's newlines and without any —
// would reach the replica over the cap and come back too_large.
func TestCoordinatorStreamRelaysClientBytes(t *testing.T) {
	a := newReplica(t, Config{Backend: tagBackend("replica-a"), BatchWait: -1})
	b := newReplica(t, Config{Backend: tagBackend("replica-b"), BatchWait: -1})
	c, ts := newTestCoordinator(t, CoordinatorConfig{}, a, b)
	ids := docsOwnedBy(t, c, a.ts.URL, 2)
	for _, sep := range []string{"\n", ""} {
		doc := func(pad int) string {
			return fmt.Sprintf(`{"doc_id":%q,"claims":[{"sentence":"%s The answer is 42.","value":"42"}]}`,
				ids[0], strings.Repeat("<", pad)) + sep
		}
		last := streamDocLine(ids[1], "42") + sep
		body := doc(maxBodyBytes-1-len(doc(0))-len(last)) + last
		if len(body) != maxBodyBytes-1 {
			t.Fatalf("session is %d bytes, want %d", len(body), maxBodyBytes-1)
		}
		verdicts, errs, sum := splitEvents(t, readEvents(t, postStream(t, ts.URL, body)))
		if len(errs) != 0 || len(verdicts) != 2 || sum.Docs != 2 {
			t.Fatalf("separator %q: %d verdicts, errors %+v, summary %+v; want both documents verified",
				sep, len(verdicts), errs, sum)
		}
	}
}

// The coordinator twin of TestStreamFirstVerdictBeforeLastBatch: a verdict
// the coordinator has relayed reaches the client while the session waits on
// the client's next document. The client here sends that document only once
// it has read the first verdict, so a relay that held its events until the
// end of the session would never finish.
func TestCoordinatorStreamFirstVerdictBeforeLastBatch(t *testing.T) {
	be := &gatedBackend{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	rep := newReplica(t, Config{Backend: be, BatchWait: -1, MaxBatch: 1})
	_, ts := newTestCoordinator(t, CoordinatorConfig{}, rep)
	body, send := io.Pipe()
	defer send.Close()
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify/stream", "application/x-ndjson", body)
		if err != nil {
			t.Error(err)
		}
		respCh <- resp
	}()
	if _, err := io.WriteString(send, streamDocLine("d0", "1")+"\n"); err != nil {
		t.Fatal(err)
	}
	<-be.entered          // document 0's batch
	be.gate <- struct{}{} // release it
	resp := <-respCh
	if resp == nil {
		t.Fatal("stream request failed")
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first StreamEvent
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Event != "verdict" || first.DocID != "d0" || first.Index != 0 {
		t.Fatalf("first event = %+v, want document 0's verdict", first)
	}
	if done := be.batchSizes(); len(done) != 1 {
		t.Fatalf("%d batches finished before the first verdict was read, want 1", len(done))
	}

	if _, err := io.WriteString(send, streamDocLine("d1", "2")+"\n"); err != nil {
		t.Fatal(err)
	}
	<-be.entered // document 1's batch, held at the gate
	close(be.gate)
	send.Close()
	evs := []StreamEvent{first}
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	verdicts, errs, sum := splitEvents(t, evs)
	if len(errs) != 0 || len(verdicts) != 2 || verdicts[1].DocID != "d1" || verdicts[1].Index != 1 {
		t.Fatalf("events = %+v, want verdicts for d0 then d1", evs)
	}
	if sum.Docs != 2 || sum.Claims != 2 || sum.Calls != 2 {
		t.Errorf("summary = %+v, want 2 docs, 2 claims, 2 calls", sum)
	}
}
