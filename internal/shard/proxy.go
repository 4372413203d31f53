package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// maxProxyResponseBytes bounds one replica response the proxy buffers — any
// response: verdicts, dataset summaries, review queues, health probes; of a
// 200 answer to Send, any one line. It matches the serve layer's request-body
// cap. A longer response is ErrResponseTooLarge, never a cut body.
const maxProxyResponseBytes = 8 << 20

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// ErrNoReplicas is returned when the ring has no live members to route to.
var ErrNoReplicas = errors.New("shard: no live replicas")

// ErrAfterDelivery marks a transport failure that happened after the request
// had already been delivered to a replica — the connection died mid-response,
// or reading the response body failed. The replica may have verified the
// claims and booked their fees, so retrying on a ring successor would re-run
// the work and double-bill it. The proxy surfaces these instead of failing
// over; callers decide whether to re-submit (safe only because verdict memos
// and the persistent store make a true re-run idempotent in results, though
// never in fees).
var ErrAfterDelivery = errors.New("shard: replica failed after the request was delivered")

// ErrResponseTooLarge marks a replica response longer than the proxy buffers.
// The request ran, so Do reports it as ErrAfterDelivery too, and relays none
// of it: a cut body would reach the caller as a 200 with verdicts missing.
var ErrResponseTooLarge = errors.New("shard: replica response over the 8 MiB cap")

// Result is one proxied exchange: which replica answered (after zero or
// more failovers), with what status and body.
type Result struct {
	// Node is the replica that produced the response; Hops counts the
	// replicas tried before it answered (0 = the key's owner answered).
	Node string
	Hops int
	// Status and Body are the replica's HTTP response, relayed verbatim.
	Status int
	Body   []byte
}

// Proxy is the tier's one way to reach a replica. Every exchange goes through
// roundTrip; two policies decide which replicas call reaches. Do routes one
// request body to the replica owning its shard key, failing over along the
// ring's deterministic successor order (Successors) when a replica is
// unreachable or draining. Each sends the same request to every live replica
// in turn. (Probe is call against /healthz, for the Prober; Send is one of
// Do's attempts, for a caller that fails over the parts of its body itself.)
// It speaks bytes, not wire structs, so the serve layer's JSON surface passes
// through untouched — what a replica answered is exactly what the client sees.
type Proxy struct {
	// Ring assigns keys to replica names. Required.
	Ring *Ring
	// BaseURL resolves a replica name to its base URL ("http://host:port").
	// Required; the coordinator uses the URL itself as the name, making
	// this the identity function.
	BaseURL func(node string) string
	// Client issues the proxied requests (default http.DefaultClient; the
	// coordinator installs one with a pooled transport).
	Client *http.Client
	// Attempts bounds how many distinct replicas one request may try
	// (default 3, capped by live membership). The first is the owner.
	Attempts int
	// OnFailure and OnSuccess report per-replica transport outcomes — the
	// coordinator wires them into the Prober so live traffic feeds the
	// replica breaker. A drain rejection (503 from a draining replica)
	// counts as a failure: the replica asked for traffic to move.
	OnFailure func(node string)
	OnSuccess func(node string)
}

// retriable reports whether a replica response should move the request to
// the next replica instead of being relayed. Only 503 qualifies: the serve
// layer answers it exactly when draining (or, at the coordinator tier, when
// no replica is live), and the request was explicitly not admitted, so
// re-routing cannot duplicate work. Every other status — including 429
// shed and 5xx backend errors — is an answer about this request and is
// relayed to the caller.
func retriable(status int) bool { return status == http.StatusServiceUnavailable }

// Do routes body to the owner of key, walking the failover order on
// transport errors and drain rejections. It returns the first relayable
// response, or an error when every eligible replica failed.
func (p *Proxy) Do(ctx context.Context, key []byte, path string, body []byte) (Result, error) {
	nodes := p.Successors(key)
	if len(nodes) == 0 {
		return Result{}, ErrNoReplicas
	}
	var lastErr error
	for hop, node := range nodes {
		res, delivered, err := p.call(ctx, node, http.MethodPost, path, "application/json", body)
		if errors.Is(err, ErrResponseTooLarge) {
			p.report(node, true) // a healthy replica, with too long an answer
			return Result{}, fmt.Errorf("replica %s: %w: %w", node, err, ErrAfterDelivery)
		}
		if err != nil {
			p.report(node, false)
			if delivered {
				// The request was fully handed to the replica before the
				// failure: it may have verified the claims and booked their
				// fees, and only the response was lost. Retrying on a
				// successor would duplicate that work, so this is an error,
				// never a failover.
				return Result{}, fmt.Errorf("replica %s: %v: %w", node, err, ErrAfterDelivery)
			}
			// Pre-delivery transport failure: the replica never received the
			// request. Feed the breaker and try the next successor — the
			// request was not processed, so moving it cannot lose or
			// duplicate claims.
			lastErr = fmt.Errorf("replica %s: %w", node, err)
			if ctx.Err() != nil {
				return Result{}, lastErr
			}
			continue
		}
		if retriable(res.Status) && hop < len(nodes)-1 {
			// Drain rejection: the replica refused admission. Rehash to the
			// next successor; its in-flight work finishes where it is.
			p.report(node, false)
			lastErr = fmt.Errorf("replica %s: draining (503)", node)
			continue
		}
		p.report(node, true)
		res.Hops = hop
		return res, nil
	}
	return Result{}, fmt.Errorf("shard: all %d replica(s) failed, last: %w", len(nodes), lastErr)
}

// Successors is key's failover order: its owner first, then the distinct
// replicas after it on the ring, Attempts in all (capped by membership).
func (p *Proxy) Successors(key []byte) []string {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 3
	}
	return p.Ring.AssignN(key, attempts)
}

// Send posts body to node: one of Do's attempts without the failover, for a
// body that packs several requests the caller fails over one by one (an
// NDJSON stream of documents, each with its own successors). It feeds the
// breaker as Do's attempts do. A 200 answer is handed to visit a line at a
// time, each under the response cap, until it ends or visit returns false;
// any other answer is buffered whole into res.Body, as call does. taken is
// how much of body the transport took before a failure, all of it once a
// status arrived: a request wholly within it may have run on the replica,
// and one past it never reached the replica, so it may go to another.
func (p *Proxy) Send(ctx context.Context, node, path string, body []byte, visit func(line []byte) bool) (res Result, taken int, err error) {
	res.Node = node
	tracker, resp, err := p.roundTrip(ctx, node, http.MethodPost, path, "application/x-ndjson", body)
	if err != nil {
		taken = int(tracker.taken.Load())
	} else {
		res.Status, taken = resp.StatusCode, len(body)
		if resp.StatusCode == http.StatusOK {
			lines := bufio.NewScanner(resp.Body)
			lines.Buffer(nil, maxProxyResponseBytes)
			for lines.Scan() && visit(lines.Bytes()) {
			}
			err = lines.Err()
		} else {
			res.Body, err = readCapped(resp.Body)
		}
		resp.Body.Close()
	}
	if err != nil {
		err = fmt.Errorf("replica %s: %w", node, err)
	}
	p.report(node, err == nil && !retriable(res.Status))
	return res, taken, err
}

// report feeds one replica outcome to OnSuccess or OnFailure.
func (p *Proxy) report(node string, ok bool) {
	f := p.OnFailure
	if ok {
		f = p.OnSuccess
	}
	if f != nil {
		f(node)
	}
}

// Each sends the same request to every live replica, one at a time in roster
// (sorted) order, and hands each outcome to visit — the replica's response, or
// the transport error naming it. visit returns false to stop early. Nothing
// fails over and nothing feeds the breaker: a broadcast is about every
// replica, so a missing one is the caller's to judge. An empty ring is
// ErrNoReplicas.
func (p *Proxy) Each(ctx context.Context, method, path, contentType string, body []byte, visit func(Result, error) bool) error {
	nodes := p.Ring.Nodes()
	if len(nodes) == 0 {
		return ErrNoReplicas
	}
	for _, node := range nodes {
		res, _, err := p.call(ctx, node, method, path, contentType, body)
		if err != nil {
			err = fmt.Errorf("replica %s: %w", node, err)
		}
		if !visit(res, err) {
			break
		}
	}
	return nil
}

// Probe checks one replica's /healthz. A draining replica answers 503, so a
// replica beginning graceful shutdown is ejected within FailAfter sweeps and
// its keyspace rehashes while its in-flight work completes where it is.
func (p *Proxy) Probe(ctx context.Context, node string) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res, _, err := p.call(ctx, node, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return err
	}
	if res.Status != http.StatusOK {
		return fmt.Errorf("healthz: status %d", res.Status)
	}
	return nil
}

// deliveryTracker wraps a request body so the proxy can tell how much of the
// request the transport took before a failure. It deliberately exposes only
// Read: handing net/http a plain io.Reader (not *bytes.Reader) keeps it from
// deriving GetBody, so the transport cannot silently replay the request on
// its own — delivery accounting stays with the proxy.
type deliveryTracker struct {
	r     *bytes.Reader
	taken atomic.Int64 // bytes the transport has read
	sent  atomic.Bool
}

func (d *deliveryTracker) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	d.taken.Add(int64(n))
	if err == io.EOF {
		// The transport drained the body: the request was fully written to
		// the wire, so the replica may be processing it.
		d.sent.Store(true)
	}
	return n, err
}

// call sends one request to one replica and buffers its response. delivered
// reports whether the request reached the replica before any failure: true
// once the request body was fully written to the wire or a response status
// arrived (the replica necessarily read the request to answer), so any later
// error — connection dying mid-response, body read failing — happened after
// the replica may have started verifying.
func (p *Proxy) call(ctx context.Context, node, method, path, contentType string, body []byte) (res Result, delivered bool, err error) {
	tracker, resp, err := p.roundTrip(ctx, node, method, path, contentType, body)
	if err != nil {
		return Result{Node: node}, tracker.sent.Load(), err
	}
	defer resp.Body.Close()
	b, err := readCapped(resp.Body)
	if err != nil {
		return Result{Node: node}, true, err
	}
	return Result{Node: node, Status: resp.StatusCode, Body: b}, true, nil
}

// readCapped buffers a response body, or answers ErrResponseTooLarge.
func readCapped(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxProxyResponseBytes+1))
	if err == nil && len(b) > maxProxyResponseBytes {
		return nil, ErrResponseTooLarge
	}
	return b, err
}

// roundTrip sends one request to one replica, the only place the tier touches
// the HTTP client, and returns the tracker of its body with the response.
func (p *Proxy) roundTrip(ctx context.Context, node, method, path, contentType string, body []byte) (*deliveryTracker, *http.Response, error) {
	tracker := &deliveryTracker{r: bytes.NewReader(body)}
	var rd io.Reader = http.NoBody // a bodiless request has nothing to track
	if len(body) > 0 {
		rd = tracker
	}
	req, err := http.NewRequestWithContext(ctx, method, p.BaseURL(node)+path, rd)
	if err != nil {
		return tracker, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.ContentLength = int64(len(body))
	client := p.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	return tracker, resp, err
}
