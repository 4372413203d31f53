// Package shard is the coordination layer of CEDAR's sharded serving tier
// (DESIGN.md §13): a consistent-hash ring that deterministically assigns
// each verification request to one of N replica processes, a health prober
// that ejects dead or draining replicas from the ring (feeding the same
// circuit-breaker counters the LLM middleware uses), and a byte-level HTTP
// proxy that routes a request to its owner and fails over to the next live
// replica when the owner is unreachable.
//
// The shard key is the claim/config fingerprint (Fingerprint): a SHA-256
// digest of the request's document identity and claim text plus the serving
// configuration, built with the same length-prefixed field discipline as
// the verdict-memo keys in cedar/fingerprint.go. Because CEDAR verdicts are
// bit-identical across processes for the same (seed, database, claims) —
// the cross-process determinism contract of DESIGN.md §11 — *any* total
// assignment of requests to replicas yields the same verdicts; consistent
// hashing is chosen so that replica membership changes move only ~1/N of
// the keyspace (warm caches and verdict memos stay hot on the replicas that
// keep their keys).
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the number of ring points one replica contributes.
// 128 points per node keeps the keyspace split within a few percent of even
// for small clusters while staying cheap to rebuild on membership changes.
const DefaultVirtualNodes = 128

// point is one virtual node on the ring: a position in the uint64 hash
// space owned by a replica.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over replica names. Assignment is a pure
// function of (key, membership): two rings holding the same nodes assign
// every key identically regardless of the order nodes were added or
// removed, which is what lets independent coordinator processes route the
// same request to the same replica. Safe for concurrent use; reads
// (Assign/AssignN/Nodes) take a read lock, so routing scales across
// handler goroutines while membership changes are rare and exclusive.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]struct{}
	points []point // sorted by (hash, node)
}

// NewRing builds an empty ring with the given virtual-node count per
// replica (values < 1 use DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// pointHash places one virtual node: a digest of the node name and the
// vnode ordinal, length-prefixed so "ab"+1 and "a"+"b1" cannot collide.
func pointHash(node string, vnode int) uint64 {
	var buf [8]byte
	h := sha256.New()
	binary.LittleEndian.PutUint64(buf[:], uint64(len(node)))
	h.Write(buf[:])
	h.Write([]byte(node))
	binary.LittleEndian.PutUint64(buf[:], uint64(vnode))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions a key on the ring.
func keyHash(key []byte) uint64 {
	sum := sha256.Sum256(key)
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a replica's virtual nodes. Adding a present node is a no-op;
// it reports whether membership changed.
func (r *Ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return false
	}
	r.nodes[node] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: pointHash(node, v), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return true
}

// Remove deletes a replica's virtual nodes; only the removed node's keys
// move (to their next live successor). Reports whether membership changed.
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Has reports whether the node is a ring member.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Len returns the number of member replicas.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the member replicas in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Assign maps a key to its owning replica: the first virtual node clockwise
// from the key's position. ok is false only on an empty ring.
func (r *Ring) Assign(key []byte) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.successor(keyHash(key))].node, true
}

// AssignN returns up to n distinct replicas in clockwise order from the
// key's position — the owner first, then the failover sequence a proxy
// walks when the owner is unreachable. The order is deterministic for a
// fixed membership, so every coordinator agrees on the fallback replica
// too, keeping warm state concentrated.
func (r *Ring) AssignN(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	idx := r.successor(keyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// successor finds the index of the first point with hash >= h, wrapping to
// 0 past the last point. Callers hold at least the read lock.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Fingerprint digests a sequence of string fields into a shard key with the
// same injective length-prefix discipline as cedar's verdict-memo keys:
// every field is preceded by its length, so distinct field sequences cannot
// collide by concatenation. The coordinator feeds it the serving config tag,
// the document ID, and each claim's text fields; equal requests hash equal
// in every coordinator process.
// The prefixed fields are hashed as one buffer, on the stack when they fit,
// so a key costs one allocation: the digest it returns.
func Fingerprint(fields ...string) []byte {
	n := 0
	for _, f := range fields {
		n += 8 + len(f)
	}
	var stack [512]byte
	buf := stack[:0]
	if n > len(stack) {
		buf = make([]byte, 0, n)
	}
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	sum := sha256.Sum256(buf)
	return sum[:]
}

// String renders membership for logs and status pages.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d replicas, %d vnodes each)", r.Len(), r.vnodes)
}
