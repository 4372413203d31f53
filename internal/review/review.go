// Package review implements CEDAR's mixed-initiative review queue: the
// holding pen for verdicts the pipeline is least sure about, ranked by the
// expected value of spending human attention on them. The Scrutinizer system
// (PAPERS.md) frames fact-checking as question selection — ask the human
// about the claims where a second opinion changes the most — and this package
// applies the same model to served verification: ambiguous verdicts
// (transport-failed, semantically exhausted, or verified only after method
// disagreement) are enqueued with a priority of
//
//	disagreement × (1 + fee sunk) × weight
//
// so the queue surfaces claims where the methods disagreed most, where the
// most money was already spent (sunk fees proxy for how hard the claim is —
// and how expensive re-running it would be), and which the caller weighted
// highest. Ordering is fully deterministic: priority descending, then item ID
// ascending, with IDs derived from a content fingerprint of the claim — the
// same queue contents rank identically on every replica.
//
// cedar-serve exposes the queue as GET /v1/review (pending items) and
// POST /v1/review/{id} (resolve); resolution is idempotent — the first
// resolution wins and repeats return it unchanged — so a retried resolve
// (e.g. through the failover proxy) cannot flip a verdict twice.
package review

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"
)

// Resolutions accepted by Queue.Resolve.
const (
	// ResolutionConfirmed records that the human agreed with the pipeline.
	ResolutionConfirmed = "confirmed"
	// ResolutionOverturned records that the human reversed the verdict.
	ResolutionOverturned = "overturned"
)

// ValidResolution reports whether r is an accepted resolution value.
func ValidResolution(r string) bool {
	return r == ResolutionConfirmed || r == ResolutionOverturned
}

// Item is one claim awaiting (or having received) human review. The JSON
// field names are the GET /v1/review wire surface (docs/CLI.md).
type Item struct {
	// ID is the deterministic content fingerprint from ItemID; it doubles as
	// the resolve-endpoint path element and the idempotency key.
	ID string `json:"id"`
	// DocID and ClaimID locate the claim; Sentence and Value reproduce it.
	DocID    string `json:"doc_id"`
	ClaimID  string `json:"claim_id"`
	Sentence string `json:"sentence,omitempty"`
	Value    string `json:"value,omitempty"`
	// Verified/Correct/Method/Attempts/Failure mirror the pipeline's verdict
	// (internal/claim.Result) so a reviewer sees what they are second-guessing.
	Verified bool   `json:"verified"`
	Correct  bool   `json:"correct"`
	Method   string `json:"method,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Failure  string `json:"failure,omitempty"`
	// Disagreement, FeeSunk, and Weight are the priority inputs; Priority is
	// their product (see Priority).
	Disagreement float64 `json:"disagreement"`
	FeeSunk      float64 `json:"fee_sunk"`
	Weight       float64 `json:"weight"`
	Priority     float64 `json:"priority"`
	// Resolution is empty while pending, else one of the Resolution*
	// constants; Note is the reviewer's free-form comment.
	Resolution string `json:"resolution,omitempty"`
	Note       string `json:"note,omitempty"`

	// enqueuedAt feeds the queue-age metric; wall clock, never part of the
	// determinism surface.
	enqueuedAt time.Time
}

// ItemID derives the deterministic identity of one reviewable claim from its
// content: the same claim enqueued on any replica — or enqueued twice — gets
// the same ID, which is what makes Enqueue and Resolve idempotent across the
// sharded tier. Fields are length-prefixed so no two distinct inputs collide
// by concatenation.
func ItemID(docID, claimID, sentence, value string) string {
	h := sha256.New()
	var n [8]byte
	for _, f := range []string{docID, claimID, sentence, value} {
		binary.BigEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Priority computes the expected-value-of-effort rank: disagreement across
// methods × (1 + fee already sunk) × claim weight. The 1+fee floor keeps a
// high-disagreement claim reviewable even when it cost nothing (e.g. it was
// answered from cache); a non-positive weight defaults to 1.
func Priority(disagreement, feeSunk, weight float64) float64 {
	if weight <= 0 {
		weight = 1
	}
	if feeSunk < 0 {
		feeSunk = 0
	}
	return disagreement * (1 + feeSunk) * weight
}

// Stats snapshots the queue for /v1/metrics.
type Stats struct {
	// Depth is the pending count; Enqueued/Resolved/Dropped are cumulative.
	Depth    int
	Enqueued int64
	Resolved int64
	Dropped  int64
	// OldestAge is the wall-clock age of the oldest pending item (zero when
	// empty); MaxPriority the highest pending priority.
	OldestAge   time.Duration
	MaxPriority float64
}

// Queue is a bounded, deterministic review queue. Safe for concurrent use.
type Queue struct {
	mu    sync.Mutex
	cap   int
	items map[string]*pending
	// victims orders the pending items for eviction, so a full queue finds
	// its victim in O(log n).
	victims victimHeap
	// resolved outlives the pending set so Resolve stays idempotent and a
	// resolved claim is not silently re-enqueued by later traffic.
	resolvedItems map[string]*Item

	enqueued, resolved, dropped int64

	// now is injectable for tests; defaults to time.Now.
	now func() time.Time
}

// DefaultCap bounds a queue built with NewQueue(0).
const DefaultCap = 256

// NewQueue builds a review queue holding at most capacity pending items
// (capacity <= 0 applies DefaultCap). At the cap, a new item evicts the
// lowest-priority pending item only if it outranks it; otherwise the new item
// is dropped — the queue keeps the claims most worth reviewing.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Queue{
		cap:           capacity,
		items:         make(map[string]*pending),
		resolvedItems: make(map[string]*Item),
		now:           time.Now,
	}
}

// Enqueue adds one item, deriving its ID (when empty) and Priority from its
// fields. It reports whether the item is pending afterwards. Enqueue is
// idempotent by ID: a pending duplicate is refreshed in place, an
// already-resolved ID is ignored (the human has spoken), and a zero
// disagreement is not reviewable and never enqueued.
func (q *Queue) Enqueue(it Item) bool {
	if it.ID == "" {
		it.ID = ItemID(it.DocID, it.ClaimID, it.Sentence, it.Value)
	}
	if it.Weight <= 0 {
		it.Weight = 1
	}
	it.Priority = Priority(it.Disagreement, it.FeeSunk, it.Weight)
	if it.Disagreement <= 0 {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, done := q.resolvedItems[it.ID]; done {
		return false
	}
	if existing, ok := q.items[it.ID]; ok {
		it.enqueuedAt = existing.enqueuedAt
		it.keepText()
		existing.Item = it
		heap.Fix(&q.victims, existing.pos)
		return true
	}
	if len(q.items) >= q.cap {
		victim := q.victims[0]
		if victim.Priority >= it.Priority {
			q.dropped++
			return false
		}
		heap.Pop(&q.victims)
		delete(q.items, victim.ID)
		q.dropped++
	}
	it.enqueuedAt = q.now()
	it.keepText()
	p := &pending{Item: it}
	q.items[it.ID] = p
	heap.Push(&q.victims, p)
	q.enqueued++
	return true
}

// keepText copies the item's text, in one allocation, before the queue
// keeps it: the strings a caller hands in may share memory with the whole
// request they were read from, which a long-lived queue entry would
// otherwise keep alive.
func (it *Item) keepText() {
	text := strings.Join([]string{it.DocID, it.ClaimID, it.Sentence, it.Value}, "")
	for _, f := range []*string{&it.DocID, &it.ClaimID, &it.Sentence, &it.Value} {
		n := len(*f)
		*f, text = text[:n], text[n:]
	}
}

// pending is one queued item and its place in the eviction heap.
type pending struct {
	Item
	pos int
}

// victimHeap is a min-heap of the pending items in eviction order: lowest
// priority first, ties broken by highest ID, the exact reverse of Pending's
// order.
type victimHeap []*pending

func (h victimHeap) Len() int { return len(h) }

func (h victimHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].ID > h[j].ID
}

func (h victimHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *victimHeap) Push(x any) {
	p := x.(*pending)
	p.pos = len(*h)
	*h = append(*h, p)
}

func (h *victimHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return p
}

// Pending returns up to limit pending items (limit <= 0 returns all) in
// deterministic review order: priority descending, then ID ascending.
func (q *Queue) Pending(limit int) []Item {
	q.mu.Lock()
	out := make([]Item, 0, len(q.items))
	for _, p := range q.items {
		out = append(out, p.Item)
	}
	q.mu.Unlock()
	SortItems(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// SortItems orders items in review order: priority descending, ID ascending.
// Exported so the coordinator can merge replica queues into the same order.
func SortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Priority != items[j].Priority {
			return items[i].Priority > items[j].Priority
		}
		return items[i].ID < items[j].ID
	})
}

// Resolve records the human verdict for one item and removes it from the
// pending set. Resolve is idempotent: resolving an already-resolved item
// returns it with its first resolution intact — later calls, whatever they
// say, change nothing. Unknown IDs report ok=false.
func (q *Queue) Resolve(id, resolution, note string) (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it, ok := q.resolvedItems[id]; ok {
		return *it, true
	}
	p, ok := q.items[id]
	if !ok {
		return Item{}, false
	}
	delete(q.items, id)
	heap.Remove(&q.victims, p.pos)
	it := &p.Item
	it.Resolution = resolution
	it.Note = note
	q.resolvedItems[id] = it
	q.resolved++
	return *it, true
}

// Stats snapshots the queue counters for /v1/metrics.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Depth:    len(q.items),
		Enqueued: q.enqueued,
		Resolved: q.resolved,
		Dropped:  q.dropped,
	}
	var oldest time.Time
	for _, it := range q.victims {
		if oldest.IsZero() || it.enqueuedAt.Before(oldest) {
			oldest = it.enqueuedAt
		}
		if it.Priority > st.MaxPriority {
			st.MaxPriority = it.Priority
		}
	}
	if !oldest.IsZero() {
		st.OldestAge = q.now().Sub(oldest)
	}
	return st
}
