package store

import "strings"

// KeysWithPrefix lists the indexed keys of one keyspace family, for the
// tests outside the package that look up what a writer stored.
func (s *Store) KeysWithPrefix(prefix string) []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.index {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	return keys
}
