package review

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func item(doc, cl string, disagreement, fee, weight float64) Item {
	return Item{
		DocID: doc, ClaimID: cl,
		Sentence: doc + " " + cl + " sentence", Value: "42",
		Disagreement: disagreement, FeeSunk: fee, Weight: weight,
	}
}

// Item IDs are a pure content fingerprint: stable across processes, distinct
// for distinct claims, and length-prefixed against concatenation collisions.
func TestReviewItemIDStable(t *testing.T) {
	a := ItemID("doc", "c1", "the sentence", "42")
	if b := ItemID("doc", "c1", "the sentence", "42"); b != a {
		t.Fatalf("same content hashed differently: %s vs %s", a, b)
	}
	if b := ItemID("doc", "c2", "the sentence", "42"); b == a {
		t.Fatal("distinct claims collided")
	}
	if b := ItemID("do", "cc1", "the sentence", "42"); b == a {
		t.Fatal("length-prefixing failed: shifted field boundary collided")
	}
	if len(a) != 16 {
		t.Fatalf("ID length = %d, want 16", len(a))
	}
}

// Pending order is deterministic — priority descending, ID ascending on ties
// — regardless of enqueue order.
func TestReviewPriorityOrderingDeterministic(t *testing.T) {
	items := []Item{
		item("d1", "c1", 1.0, 0.5, 1), // priority 1.5
		item("d1", "c2", 0.5, 0, 1),   // 0.5
		item("d2", "c1", 0.9, 1.0, 2), // 3.6
		item("d2", "c2", 0.5, 0, 1),   // 0.5: ties with d1/c2, ID breaks it
		item("d3", "c1", 0.67, 0.2, 1),
	}
	var want []Item
	for perm := 0; perm < 10; perm++ {
		q := NewQueue(0)
		r := rand.New(rand.NewSource(int64(perm)))
		for _, i := range r.Perm(len(items)) {
			if !q.Enqueue(items[i]) {
				t.Fatalf("perm %d: enqueue rejected %+v", perm, items[i])
			}
		}
		got := q.Pending(0)
		for i := range got {
			got[i].enqueuedAt = time.Time{} // wall clock, not part of the ordering contract
		}
		if perm == 0 {
			want = got
			for i := 1; i < len(want); i++ {
				a, b := want[i-1], want[i]
				if a.Priority < b.Priority || (a.Priority == b.Priority && a.ID >= b.ID) {
					t.Fatalf("order violated at %d: %+v before %+v", i, a, b)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("perm %d: pending order diverged:\n got %+v\nwant %+v", perm, got, want)
		}
	}
	if want[0].DocID != "d2" || want[0].ClaimID != "c1" {
		t.Fatalf("highest expected-value item = %s/%s, want d2/c1", want[0].DocID, want[0].ClaimID)
	}
}

// Resolve is idempotent: the first resolution wins, repeats — even with a
// contradictory verdict — return it unchanged, and a resolved claim cannot be
// re-enqueued by later traffic.
func TestReviewResolveIdempotent(t *testing.T) {
	q := NewQueue(0)
	it := item("d", "c1", 1, 0.2, 1)
	if !q.Enqueue(it) {
		t.Fatal("enqueue rejected")
	}
	id := q.Pending(0)[0].ID

	first, ok := q.Resolve(id, ResolutionOverturned, "bad join")
	if !ok || first.Resolution != ResolutionOverturned || first.Note != "bad join" {
		t.Fatalf("first resolve = %+v ok=%t", first, ok)
	}
	if len(q.Pending(0)) != 0 {
		t.Fatal("resolved item still pending")
	}
	second, ok := q.Resolve(id, ResolutionConfirmed, "actually fine")
	if !ok {
		t.Fatal("second resolve reported unknown id")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second resolve changed the item:\nfirst  %+v\nsecond %+v", first, second)
	}
	if q.Enqueue(it) {
		t.Fatal("resolved claim was re-enqueued")
	}
	if st := q.Stats(); st.Resolved != 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v, want resolved=1 depth=0", st)
	}
	if _, ok := q.Resolve("no-such-id", ResolutionConfirmed, ""); ok {
		t.Fatal("unknown id resolved")
	}
}

// Enqueue is idempotent by ID, rejects unreviewable (zero-disagreement)
// items, and at the cap keeps the highest-priority claims.
func TestReviewEnqueueBoundsAndIdempotency(t *testing.T) {
	q := NewQueue(2)
	if q.Enqueue(item("d", "agree", 0, 1, 1)) {
		t.Fatal("zero-disagreement item enqueued")
	}
	a, b := item("d", "a", 0.5, 0, 1), item("d", "b", 0.9, 0, 1)
	q.Enqueue(a)
	q.Enqueue(b)
	if !q.Enqueue(a) { // duplicate refreshes in place
		t.Fatal("pending duplicate rejected")
	}
	if st := q.Stats(); st.Depth != 2 || st.Enqueued != 2 {
		t.Fatalf("after duplicate: stats = %+v, want depth=2 enqueued=2", st)
	}
	// Outranking item evicts the lowest; underranking item is dropped.
	if !q.Enqueue(item("d", "hot", 1.0, 1, 1)) {
		t.Fatal("outranking item rejected at cap")
	}
	if q.Enqueue(item("d", "cold", 0.1, 0, 1)) {
		t.Fatal("underranking item admitted at cap")
	}
	got := q.Pending(0)
	if len(got) != 2 || got[0].ClaimID != "hot" || got[1].ClaimID != "b" {
		t.Fatalf("pending after eviction = %+v, want [hot b]", got)
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (one eviction, one rejection)", st.Dropped)
	}
}

// Stats reports depth, age of the oldest pending item, and the max priority.
func TestReviewStatsAge(t *testing.T) {
	q := NewQueue(0)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	q.Enqueue(item("d", "c1", 0.9, 0, 1))
	now = now.Add(3 * time.Second)
	q.Enqueue(item("d", "c2", 0.5, 0, 1))
	now = now.Add(2 * time.Second)
	st := q.Stats()
	if st.Depth != 2 || st.OldestAge != 5*time.Second || st.MaxPriority != 0.9 {
		t.Fatalf("stats = %+v, want depth=2 oldest=5s maxPriority=0.9", st)
	}
}

// The queue is safe under concurrent enqueue/resolve/pending traffic.
func TestReviewConcurrentAccess(t *testing.T) {
	q := NewQueue(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				it := item(fmt.Sprintf("d%d", g), fmt.Sprintf("c%d", i), 0.5+float64(i%5)/10, float64(i)/100, 1)
				q.Enqueue(it)
				if p := q.Pending(4); len(p) > 0 {
					q.Resolve(p[0].ID, ResolutionConfirmed, "")
				}
				q.Stats()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// An item evicted at the cap is gone, not resolved: resolving it reports
// ok=false, and — unlike a resolved claim — it may be legitimately
// re-enqueued by later traffic and then resolved normally.
func TestReviewResolveAfterCapEviction(t *testing.T) {
	q := NewQueue(1)
	cold := item("d", "cold", 0.2, 0, 1)
	if !q.Enqueue(cold) {
		t.Fatal("cold item rejected on an empty queue")
	}
	coldID := q.Pending(0)[0].ID
	if !q.Enqueue(item("d", "hot", 0.9, 0, 1)) {
		t.Fatal("outranking item rejected at cap")
	}

	// The eviction removed cold without a human verdict; resolving it must
	// fail rather than minting a resolution for an item nobody reviewed.
	if _, ok := q.Resolve(coldID, ResolutionConfirmed, ""); ok {
		t.Fatal("evicted item resolved; eviction must not imply resolution")
	}
	if st := q.Stats(); st.Resolved != 0 || st.Dropped != 1 || st.Depth != 1 {
		t.Fatalf("stats after evicted-resolve = %+v, want resolved=0 dropped=1 depth=1", st)
	}

	// Eviction is not a verdict: once capacity frees up the same claim can
	// come back and be resolved like any pending item.
	hotID := q.Pending(0)[0].ID
	if _, ok := q.Resolve(hotID, ResolutionConfirmed, ""); !ok {
		t.Fatal("pending hot item did not resolve")
	}
	if !q.Enqueue(cold) {
		t.Fatal("evicted (never-resolved) item rejected on re-enqueue")
	}
	if it, ok := q.Resolve(coldID, ResolutionOverturned, "second pass"); !ok || it.Resolution != ResolutionOverturned {
		t.Fatalf("re-enqueued item resolve = %+v ok=%t", it, ok)
	}
}

// A duplicate Enqueue — e.g. the same claim arriving twice through the
// sharded tier's failover proxy — refreshes the pending item in place: its
// priority follows the newest inputs, the enqueue counter does not double,
// and its position in review order moves with the refreshed priority.
func TestReviewDuplicateEnqueueRefreshesPriority(t *testing.T) {
	q := NewQueue(0)
	a := item("d", "a", 0.3, 0, 1)
	b := item("d", "b", 0.5, 0, 1)
	q.Enqueue(a)
	q.Enqueue(b)
	if got := q.Pending(0); got[0].ClaimID != "b" {
		t.Fatalf("initial order = [%s %s], want b first", got[0].ClaimID, got[1].ClaimID)
	}

	// Same claim, higher sunk fee: identical ID, so this refreshes a rather
	// than adding a second entry — and a now outranks b.
	a.FeeSunk = 3
	if !q.Enqueue(a) {
		t.Fatal("duplicate refresh rejected")
	}
	got := q.Pending(0)
	if len(got) != 2 || got[0].ClaimID != "a" {
		t.Fatalf("order after refresh = %+v, want a first", got)
	}
	if want := Priority(0.3, 3, 1); got[0].Priority != want {
		t.Fatalf("refreshed priority = %v, want %v", got[0].Priority, want)
	}
	if st := q.Stats(); st.Enqueued != 2 || st.Depth != 2 || st.Dropped != 0 {
		t.Fatalf("stats after refresh = %+v, want enqueued=2 depth=2 dropped=0", st)
	}
}

// scanQueue is the queue's contract written the slow way: the eviction
// victim is found by scanning every pending item, as the queue did before it
// kept a heap. TestReviewEvictionMatchesScan holds the queue to it.
type scanQueue struct {
	cap                          int
	items                        map[string]Item
	resolved                     map[string]bool
	enqueued, resolvedN, dropped int64
}

func (s *scanQueue) enqueue(it Item, now time.Time) bool {
	it.ID = ItemID(it.DocID, it.ClaimID, it.Sentence, it.Value)
	if it.Weight <= 0 {
		it.Weight = 1
	}
	it.Priority = Priority(it.Disagreement, it.FeeSunk, it.Weight)
	if it.Disagreement <= 0 || s.resolved[it.ID] {
		return false
	}
	if old, ok := s.items[it.ID]; ok {
		it.enqueuedAt = old.enqueuedAt
		s.items[it.ID] = it
		return true
	}
	if len(s.items) >= s.cap {
		var victim Item
		first := true
		for _, p := range s.items {
			if first || p.Priority < victim.Priority || (p.Priority == victim.Priority && p.ID > victim.ID) {
				victim, first = p, false
			}
		}
		s.dropped++
		if victim.Priority >= it.Priority {
			return false
		}
		delete(s.items, victim.ID)
	}
	it.enqueuedAt = now
	s.items[it.ID] = it
	s.enqueued++
	return true
}

func (s *scanQueue) resolve(id string) bool {
	if s.resolved[id] {
		return true
	}
	if _, ok := s.items[id]; !ok {
		return false
	}
	delete(s.items, id)
	s.resolved[id] = true
	s.resolvedN++
	return true
}

func (s *scanQueue) stats(now time.Time) Stats {
	st := Stats{Depth: len(s.items), Enqueued: s.enqueued, Resolved: s.resolvedN, Dropped: s.dropped}
	var oldest time.Time
	for _, it := range s.items {
		if oldest.IsZero() || it.enqueuedAt.Before(oldest) {
			oldest = it.enqueuedAt
		}
		st.MaxPriority = max(st.MaxPriority, it.Priority)
	}
	if !oldest.IsZero() {
		st.OldestAge = now.Sub(oldest)
	}
	return st
}

// The heap evicts exactly what the scan did: over random enqueue, re-enqueue
// and resolve sequences, with priority ties common, every Enqueue and Resolve
// answers alike and Pending and Stats agree after every step.
func TestReviewEvictionMatchesScan(t *testing.T) {
	levels := []float64{0, 0.25, 0.5, 1}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(8)
		q := NewQueue(capacity)
		clock := time.Unix(1000, 0)
		q.now = func() time.Time { return clock }
		ref := &scanQueue{cap: capacity, items: map[string]Item{}, resolved: map[string]bool{}}
		var ids []string
		for step := 0; step < 300; step++ {
			clock = clock.Add(time.Second)
			claim := fmt.Sprintf("c%d", r.Intn(3*capacity))
			if r.Intn(4) == 0 {
				id := ItemID("d", claim, "d "+claim+" sentence", "42")
				if len(ids) > 0 && r.Intn(2) == 0 {
					id = ids[r.Intn(len(ids))]
				}
				_, got := q.Resolve(id, ResolutionConfirmed, "")
				if want := ref.resolve(id); got != want {
					t.Fatalf("seed %d step %d: Resolve(%s) = %v, scan says %v", seed, step, id, got, want)
				}
			} else {
				it := item("d", claim, levels[r.Intn(len(levels))], levels[r.Intn(len(levels))], float64(1+r.Intn(2)))
				got := q.Enqueue(it)
				if want := ref.enqueue(it, clock); got != want {
					t.Fatalf("seed %d step %d: Enqueue(%s) = %v, scan says %v", seed, step, claim, got, want)
				}
				ids = append(ids, ItemID(it.DocID, it.ClaimID, it.Sentence, it.Value))
			}
			want := make([]Item, 0, len(ref.items))
			for _, it := range ref.items {
				want = append(want, it)
			}
			SortItems(want)
			if got := q.Pending(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: pending diverged:\n got %+v\nwant %+v", seed, step, got, want)
			}
			if got, want := q.Stats(), ref.stats(clock); got != want {
				t.Fatalf("seed %d step %d: stats = %+v, scan says %+v", seed, step, got, want)
			}
		}
	}
}

// TestReviewQueueReleasesRequestText: a queued item's text may arrive as
// substrings of the whole request it was decoded from; the queue keeps
// copies, so a long-lived entry does not keep that request alive.
func TestReviewQueueReleasesRequestText(t *testing.T) {
	q := NewQueue(0)
	released := make(chan struct{})
	func() {
		body := fmt.Sprintf(`{"doc_id":"doc-%d","claims":[{"id":"c1","sentence":"The value is 42.","value":"42"}]}%s`,
			time.Now().UnixNano(), strings.Repeat(" ", 256))
		runtime.AddCleanup(unsafe.StringData(body), func(ch chan struct{}) { close(ch) }, released)
		at := func(s string) string { i := strings.Index(body, s); return body[i : i+len(s)] }
		if !q.Enqueue(Item{DocID: at("doc-"), ClaimID: at("c1"), Sentence: at("The value is 42."), Value: at("42"), Disagreement: 1}) {
			t.Fatal("item not enqueued")
		}
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the queue keeps the request its item's text came from alive")
	}
	if items := q.Pending(0); len(items) != 1 || items[0].Sentence != "The value is 42." {
		t.Fatalf("pending = %+v", items)
	}
}
