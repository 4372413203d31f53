// Package store is CEDAR's disk-backed, content-addressed result store: the
// persistence layer that lets verification cost amortize across runs,
// benchmarks, and server restarts. CEDAR's premise is that verification cost
// is dominated by LLM fees, yet an in-memory cache alone re-bills every
// identical temperature-0 prompt the moment the process exits. The store
// persists the record families of its keyspace (codec.go: completions, verdict
// memos and ingested datasets, each written by one package through Enc) in
// append-only, CRC-framed segment files with an in-memory index, so a warm
// process answers repeated deterministic work at zero fee and bit-identical
// content (DESIGN.md §11).
//
// Durability model: appends are framed with a per-record CRC32C, so a crash
// mid-write leaves at most a torn tail. Open recovers by scanning each
// segment and truncating at the first frame that fails a bound, checksum, or
// shape check — it never fails the open and never serves a partial record.
// Keys are full content (no hash-only addressing): a lookup compares the
// entire key material, so colliding fingerprints cannot alias entries.
//
// Concurrency model: the keyspace is sharded; each shard owns its own
// segment file, RWMutex, and index map, so concurrent readers on different
// shards never contend and readers on the same shard share an RLock.
package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// shardCount fixes how many segment files (and locks) a store spreads over.
// It is part of the on-disk layout only in the weak sense that a directory
// always holds exactly these files; records are self-describing, so the
// constant could change between versions without invalidating data — each
// segment replays into whatever shard map the hash assigns.
const shardCount = 16

// Store is a disk-backed key/value result store. All methods are safe for
// concurrent use.
type Store struct {
	dir    string
	shards [shardCount]*shard

	gets   atomic.Int64
	hits   atomic.Int64
	puts   atomic.Int64
	dupes  atomic.Int64
	loaded int
	thrown int64
}

// shard is one lock domain: a segment file plus its in-memory index.
type shard struct {
	mu    sync.RWMutex
	file  *os.File
	index map[string][]byte
}

// Stats reports store activity since Open plus what recovery found.
type Stats struct {
	// Gets and Hits count lookups and successful lookups.
	Gets, Hits int64
	// Puts counts appended records; Dupes counts writes skipped because the
	// identical record was already present.
	Puts, Dupes int64
	// Recovered is the number of intact records loaded at Open.
	Recovered int
	// Truncated is the number of torn-tail bytes discarded at Open across
	// all segments.
	Truncated int64
}

// Open opens (creating if needed) the store rooted at dir, recovering every
// segment: each file's intact record prefix is loaded into the index and any
// torn tail from a crashed append is truncated away. Open fails only on I/O
// errors or when dir holds files that are not CEDAR segments — corruption
// from a crash is recovered, not reported.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	for i := range s.shards {
		sh, recovered, truncated, err := openShard(filepath.Join(dir, fmt.Sprintf("seg-%02d.cedar", i)))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards[i] = sh
		s.loaded += recovered
		s.thrown += truncated
	}
	return s, nil
}

// openShard loads one segment file, truncating any torn tail.
func openShard(path string) (*shard, int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, 0, fmt.Errorf("store: reading %s: %w", path, err)
	}
	validLen := 0
	var recs []record
	switch {
	case len(data) < len(segmentMagic):
		// Empty or a header torn mid-write: only a magic prefix is
		// recoverable (the file restarts from scratch); anything else is not
		// one of our files.
		if !bytes.HasPrefix([]byte(segmentMagic), data) {
			return nil, 0, 0, fmt.Errorf("store: %s is not a CEDAR segment", path)
		}
	case string(data[:len(segmentMagic)]) != segmentMagic:
		return nil, 0, 0, fmt.Errorf("store: %s is not a CEDAR segment", path)
	default:
		var n int
		recs, n = scanSegment(data[len(segmentMagic):])
		validLen = len(segmentMagic) + n
	}
	truncated := int64(len(data) - validLen)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: opening %s: %w", path, err)
	}
	if validLen == 0 {
		// Fresh (or reset) segment: start over with a clean header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, 0, err
		}
		if _, err := f.Write([]byte(segmentMagic)); err != nil {
			f.Close()
			return nil, 0, 0, err
		}
	} else {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, 0, 0, err
		}
		if _, err := f.Seek(int64(validLen), 0); err != nil {
			f.Close()
			return nil, 0, 0, err
		}
	}
	index := make(map[string][]byte, len(recs))
	for _, r := range recs {
		// Replay order is append order, so the last write of a key wins —
		// the same rule Put applies live.
		index[string(r.key)] = append([]byte(nil), r.value...)
	}
	return &shard{file: f, index: index}, len(recs), truncated, nil
}

// shardFor maps a key to its lock domain.
func (s *Store) shardFor(key []byte) *shard {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return s.shards[h.Sum64()%shardCount]
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.gets.Add(1)
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.index[string(key)]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), v...), true
}

// Put appends a record and indexes it. Writing the value already stored
// under key is a no-op (append-only files stay lean when deterministic
// producers re-derive the same result); a different value overwrites — last
// write wins, both live and on replay. A torn append (crash mid-write) is
// invisible after recovery: the next Open truncates it.
func (s *Store) Put(key, value []byte) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.index[string(key)]; ok && bytes.Equal(cur, value) {
		s.dupes.Add(1)
		return nil
	}
	if _, err := sh.file.Write(encodeRecord(key, value)); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	sh.index[string(key)] = append([]byte(nil), value...)
	s.puts.Add(1)
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		sh.mu.RLock()
		n += len(sh.index)
		sh.mu.RUnlock()
	}
	return n
}

// Dir returns the directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gets:      s.gets.Load(),
		Hits:      s.hits.Load(),
		Puts:      s.puts.Load(),
		Dupes:     s.dupes.Load(),
		Recovered: s.loaded,
		Truncated: s.thrown,
	}
}

// Close closes every segment file. The store must not be used afterwards.
// Records are written straight through on Put, so Close adds no durability —
// it only releases file handles; skipping it (a crash) costs at most the
// torn tail the next Open truncates.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		if sh.file != nil {
			if err := sh.file.Close(); err != nil && first == nil {
				first = err
			}
			sh.file = nil
		}
		sh.mu.Unlock()
	}
	return first
}
