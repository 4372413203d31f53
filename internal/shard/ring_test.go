package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return out
}

func ringOf(vnodes int, nodes ...string) *Ring {
	r := NewRing(vnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// testKeys derives a deterministic key corpus from the routing fingerprint
// itself, so the distribution under test is the one production sees.
func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = Fingerprint("cfg", fmt.Sprintf("doc-%d", i), "sentence", "value")
	}
	return keys
}

// Assignment is a pure function of membership: insertion order, removals,
// and re-additions must not change where keys land.
func TestRingAssignmentIndependentOfHistory(t *testing.T) {
	nodes := nodeNames(5)
	a := ringOf(64, nodes...)
	b := NewRing(64)
	for i := len(nodes) - 1; i >= 0; i-- { // reverse insertion order
		b.Add(nodes[i])
	}
	// c takes a detour: extra members added then removed.
	c := ringOf(64, append([]string{"http://ghost-1", "http://ghost-2"}, nodes...)...)
	c.Remove("http://ghost-1")
	c.Remove("http://ghost-2")
	for _, key := range testKeys(500) {
		na, ok := a.Assign(key)
		if !ok {
			t.Fatal("assign failed on populated ring")
		}
		if nb, _ := b.Assign(key); nb != na {
			t.Fatalf("insertion order changed assignment: %q vs %q", na, nb)
		}
		if nc, _ := c.Assign(key); nc != na {
			t.Fatalf("membership detour changed assignment: %q vs %q", na, nc)
		}
	}
}

// Every key maps to exactly one live member; the empty ring reports !ok.
func TestRingAssignmentTotal(t *testing.T) {
	r := NewRing(32)
	if _, ok := r.Assign([]byte("k")); ok {
		t.Fatal("empty ring assigned a key")
	}
	nodes := nodeNames(4)
	for _, n := range nodes {
		r.Add(n)
	}
	member := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		member[n] = true
	}
	for _, key := range testKeys(1000) {
		n, ok := r.Assign(key)
		if !ok || !member[n] {
			t.Fatalf("key assigned to %q (ok=%v), want a live member", n, ok)
		}
	}
}

// Removing one of N replicas moves only that replica's keys (to successors)
// and re-adding it restores the original assignment exactly; the moved
// fraction stays near 1/N.
func TestRingMinimalMovement(t *testing.T) {
	nodes := nodeNames(8)
	r := ringOf(0, nodes...)
	keys := testKeys(4000)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i], _ = r.Assign(k)
	}
	victim := nodes[3]
	r.Remove(victim)
	moved := 0
	for i, k := range keys {
		after, _ := r.Assign(k)
		if after == victim {
			t.Fatalf("key still assigned to removed replica %q", victim)
		}
		if after != before[i] {
			if before[i] != victim {
				t.Fatalf("key moved from %q to %q though %q was removed", before[i], after, victim)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.04 || frac > 0.25 { // ideal 1/8 = 0.125 with vnode variance
		t.Errorf("removal moved %.1f%% of keys, want ~12.5%%", frac*100)
	}
	r.Add(victim)
	for i, k := range keys {
		if again, _ := r.Assign(k); again != before[i] {
			t.Fatalf("re-adding %q did not restore assignment: %q vs %q", victim, again, before[i])
		}
	}
}

// AssignN yields distinct replicas, owner first, stable per key.
func TestRingAssignNFailoverOrder(t *testing.T) {
	r := ringOf(0, nodeNames(4)...)
	for _, key := range testKeys(200) {
		owner, _ := r.Assign(key)
		order := r.AssignN(key, 3)
		if len(order) != 3 || order[0] != owner {
			t.Fatalf("AssignN = %v, want 3 distinct starting with owner %q", order, owner)
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("AssignN repeated %q: %v", n, order)
			}
			seen[n] = true
		}
		if got := r.AssignN(key, 10); len(got) != 4 {
			t.Fatalf("AssignN capped at %d, want membership size 4", len(got))
		}
	}
}

// Keyspace balance: with default vnodes no replica owns a wildly outsized
// share. This pins the vnode count as load-bearing, not cosmetic.
func TestRingBalance(t *testing.T) {
	nodes := nodeNames(4)
	r := ringOf(0, nodes...)
	counts := map[string]int{}
	keys := testKeys(8000)
	for _, k := range keys {
		n, _ := r.Assign(k)
		counts[n]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("replica %s owns %.1f%% of keys, want roughly 25%%", n, frac*100)
		}
	}
}

// TestRingStressConcurrentMembership races 32 goroutines of steady routing
// reads against continuous replica join/leave, mirroring a coordinator
// routing under churn. Run under -race by `make shard` (and `make race`).
// Invariants: assignments always land on some replica of the stable core,
// and after the churn settles the ring equals a freshly built one.
func TestRingStressConcurrentMembership(t *testing.T) {
	core := nodeNames(4)
	churn := make([]string, 8)
	for i := range churn {
		churn[i] = fmt.Sprintf("http://churn-%d:8080", i)
	}
	r := ringOf(32, core...)
	keys := testKeys(64)
	stable := make(map[string]bool, len(core))
	for _, n := range core {
		stable[n] = true
	}

	const (
		readers  = 24
		mutators = 8 // 32 goroutines total
		rounds   = 400
	)
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keys[(g+i)%len(keys)]
				n, ok := r.Assign(key)
				if !ok {
					errs <- "assign failed with core replicas present"
					return
				}
				if !stable[n] && len(n) == 0 {
					errs <- "assigned empty node"
					return
				}
				if fo := r.AssignN(key, 3); len(fo) == 0 {
					errs <- "AssignN empty with core replicas present"
					return
				}
			}
		}(g)
	}
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			node := churn[g]
			for i := 0; i < rounds; i++ {
				if rng.Intn(2) == 0 {
					r.Add(node)
				} else {
					r.Remove(node)
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Settle: remove all churn nodes; the survivor must match a fresh ring.
	for _, n := range churn {
		r.Remove(n)
	}
	want := ringOf(32, core...)
	if !reflect.DeepEqual(r.Nodes(), want.Nodes()) {
		t.Fatalf("membership after churn = %v, want %v", r.Nodes(), want.Nodes())
	}
	for _, k := range testKeys(500) {
		got, _ := r.Assign(k)
		ref, _ := want.Assign(k)
		if got != ref {
			t.Fatalf("post-churn assignment diverged: %q vs fresh ring %q", got, ref)
		}
	}
}

// Fingerprint is injective over field boundaries: shifting bytes between
// adjacent fields must change the digest.
func TestFingerprintFieldBoundaries(t *testing.T) {
	a := Fingerprint("ab", "c")
	b := Fingerprint("a", "bc")
	if string(a) == string(b) {
		t.Fatal("fingerprint collided across field boundaries")
	}
	if string(Fingerprint("x")) != string(Fingerprint("x")) {
		t.Fatal("fingerprint not deterministic")
	}
}

// TestRingFingerprintMatchesStreamed holds Fingerprint, which hashes its
// length-prefixed fields as one buffer, to the same fields written to a
// SHA-256 one at a time, over field counts and lengths either side of its
// stack buffer, and pins its allocations.
func TestRingFingerprintMatchesStreamed(t *testing.T) {
	streamed := func(fields ...string) []byte {
		h := sha256.New()
		var n [8]byte
		for _, f := range fields {
			binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
			h.Write(n[:])
			h.Write([]byte(f))
		}
		return h.Sum(nil)
	}
	cases := [][]string{nil, {""}, {"", ""}, {"a", "bc"}, {"ab", "c"}, {"cfg", "doc-7"}}
	for _, n := range []int{1, 100, 495, 496, 497, 600, 5000} {
		cases = append(cases, []string{strings.Repeat("x", n)}, []string{"tag", strings.Repeat("é", n/2), "v"})
	}
	for _, fields := range cases {
		if got, want := Fingerprint(fields...), streamed(fields...); !bytes.Equal(got, want) {
			t.Fatalf("Fingerprint(%q) = %x, want %x", fields, got, want)
		}
	}
	fields := []string{"cfg", "doc-1", "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.", "2", ""}
	if n := testing.AllocsPerRun(100, func() { _ = Fingerprint(fields...) }); n > 1 {
		t.Errorf("%.0f allocations per key, want 1", n)
	}
}
