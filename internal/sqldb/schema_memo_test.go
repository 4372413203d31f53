package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// referenceSchema is Schema as it was before the rendering was memoised per
// catalog version: rendered afresh from the current tables on every call.
func referenceSchema(d *Database) string {
	var b strings.Builder
	for _, t := range d.Tables() {
		fmt.Fprintf(&b, "CREATE TABLE \"%s\" (", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "\"%s\" %s", c.Name, c.Type)
		}
		b.WriteString(");\n")
	}
	return b.String()
}

func churnTable(name string, cols int) *Table {
	names := make([]string, cols)
	vals := make([]Value, cols)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		if i%2 == 0 {
			vals[i] = Int(int64(i))
		} else {
			vals[i] = Text("v")
		}
	}
	t := NewTable(name, names...)
	t.MustAppendRow(vals...)
	return t
}

// TestSchemaMemoInvalidation walks the catalog changes one at a time: every
// AddTable, replacement and RemoveTable must show in the next Schema call,
// and repeated calls in between return the same text.
func TestSchemaMemoInvalidation(t *testing.T) {
	db := NewDatabase("memo")
	check := func(step string) {
		t.Helper()
		want := referenceSchema(db)
		for i := 0; i < 3; i++ {
			if got := db.Schema(); got != want {
				t.Fatalf("%s, call %d: Schema() = %q, fresh render %q", step, i, got, want)
			}
		}
	}
	check("empty catalog")
	db.AddTable(churnTable("a", 2))
	check("after AddTable a")
	db.AddTable(churnTable("b", 3))
	check("after AddTable b")
	db.AddTable(churnTable("A", 5))
	check("after replacing a with wider A")
	if !db.RemoveTable("b") {
		t.Fatal("RemoveTable(b) found nothing")
	}
	check("after RemoveTable b")
	if db.RemoveTable("b") {
		t.Fatal("second RemoveTable(b) found a table")
	}
	check("after a RemoveTable that changed nothing")
}

// TestSchemaMemoChurn reads Schema from 32 goroutines while four others add,
// replace and remove tables. The writers take turns and note the fresh
// render at every catalog version; a reader notes the version before and
// after each call. Every text a reader got must be the fresh render at a
// version inside its window — a prompt never carries a schema older than the
// catalog its attempt could have seen — and a read after the last write is
// the fresh render of the final catalog.
func TestSchemaMemoChurn(t *testing.T) {
	const readers, writers, writes = 32, 4, 250
	db := NewDatabase("churn")
	db.AddTable(churnTable("base", 4))

	var (
		turn    sync.Mutex // serialises writers so each version has one render
		renders = map[uint64]string{db.Version(): referenceSchema(db)}
	)
	type read struct {
		before, after uint64
		text          string
	}
	reads := make([][]read, readers)
	spins := make([]int, readers)
	done := make(chan struct{})
	var readersWG, writersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := db.Version()
				text := db.Schema()
				rd := read{before, db.Version(), text}
				// A quiet catalog answers the same thing millions of times;
				// one record per distinct answer is the whole evidence.
				if n := len(reads[r]); n == 0 || reads[r][n-1] != rd {
					reads[r] = append(reads[r], rd)
				}
				spins[r]++
				runtime.Gosched() // two cores: let the writers have their turn
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < writes; i++ {
				name := fmt.Sprintf("t%d", (w*writes+i)%6)
				turn.Lock()
				if i%3 == 2 {
					db.RemoveTable(name)
				} else {
					db.AddTable(churnTable(name, 1+(w+i)%5))
				}
				renders[db.Version()] = referenceSchema(db)
				turn.Unlock()
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()

	if got, want := db.Schema(), referenceSchema(db); got != want {
		t.Fatalf("after the last write Schema() = %q, fresh render %q", got, want)
	}
	total, memoised := 0, 0
	for r, rs := range reads {
		total += spins[r]
		for _, rd := range rs {
			ok := false
			for v := rd.before; v <= rd.after && !ok; v++ {
				text, rendered := renders[v]
				ok = rendered && text == rd.text
			}
			if !ok {
				t.Fatalf("reader %d between versions %d and %d got a schema no catalog in that window renders:\n%s", r, rd.before, rd.after, rd.text)
			}
			if rd.before == rd.after {
				memoised++
			}
		}
	}
	t.Logf("%d reads over %d catalog versions, %d distinct answers inside one version", total, len(renders), memoised)
	if total < readers || memoised == 0 {
		t.Fatalf("%d reads, %d inside one version; the readers barely ran", total, memoised)
	}
}
