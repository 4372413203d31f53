package serve

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tierGoroutines returns the stacks of the live goroutines running code of
// this package or internal/shard, keyed by their "goroutine N" header.
func tierGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		stack := string(g)
		if !strings.Contains(stack, "\nrepro/internal/serve.") && !strings.Contains(stack, "\nrepro/internal/shard.") {
			continue
		}
		header, _, _ := strings.Cut(stack, " [")
		out[header] = stack
	}
	return out
}

// checkNoLeak snapshots the tier's goroutines and returns a check that fails
// the test if any goroutine started after the snapshot still runs tier code
// once runtime.NumGoroutine has settled. Replica batch loops and probers
// running at the snapshot are not counted; neither is the net/http
// machinery, whose idle connections outlive a request by design.
func checkNoLeak(t *testing.T) func() {
	t.Helper()
	before := tierGoroutines()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			for n, still := runtime.NumGoroutine(), 0; still < 3 && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
				if m := runtime.NumGoroutine(); m == n {
					still++
				} else {
					n, still = m, 0
				}
			}
			var leaked []string
			for id, stack := range tierGoroutines() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutine(s) outlived the session:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
		}
	}
}
