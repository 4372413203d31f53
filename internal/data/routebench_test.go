package data_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/route"
)

// corpusSignature renders everything identity-relevant about the corpus.
func corpusSignature(c *data.RouteBenchCorpus) string {
	s := ""
	for _, db := range c.Databases {
		var names []string
		for _, t := range db.Tables() {
			names = append(names, t.Name)
		}
		s += db.Name + ":" + fmt.Sprint(names) + "\n"
	}
	for _, d := range c.Docs {
		s += d.ID + " " + d.Data.Name + "\n"
		for _, cl := range d.Claims {
			s += fmt.Sprintf("  %s|%s|%s|%v|%s\n", cl.ID, cl.Sentence, cl.Value, cl.Gold.Correct, cl.Gold.Query)
		}
	}
	ids := make([]string, 0, len(c.Gold))
	for id := range c.Gold {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s += id + "->" + fmt.Sprint(c.Gold[id]) + "\n"
	}
	return s
}

func TestRouteBenchDeterministic(t *testing.T) {
	a, err := data.RouteBench(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := data.RouteBench(7)
	if err != nil {
		t.Fatal(err)
	}
	if corpusSignature(a) != corpusSignature(b) {
		t.Fatal("routebench corpus differs across generations at the same seed")
	}
	if got := corpusSignature(a); got == corpusSignature(mustRouteBench(t, 8)) {
		t.Fatal("routebench corpus identical across different seeds")
	}
	if a.SubClaims < 24 {
		t.Fatalf("suspiciously few sub-claims: %d", a.SubClaims)
	}
	if a.Simple != 2*len(a.Docs) {
		t.Fatalf("simple claim count %d, want %d", a.Simple, 2*len(a.Docs))
	}
}

func mustRouteBench(t *testing.T, seed int64) *data.RouteBenchCorpus {
	t.Helper()
	c, err := data.RouteBench(seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRouteBenchDecomposeRoundTrip pins the contract between the corpus
// generator and the decomposer: every compound claim splits into exactly its
// gold conjuncts, and no simple claim or conjunct splits further.
func TestRouteBenchDecomposeRoundTrip(t *testing.T) {
	c := mustRouteBench(t, 7)
	for _, d := range c.Docs {
		for _, cl := range d.Claims {
			subs := route.Decompose(cl.Sentence, cl.Value, cl.Context)
			gold, compound := c.Gold[cl.ID]
			if !compound {
				if len(subs) != 1 {
					t.Fatalf("simple claim %s decomposed into %d parts", cl.ID, len(subs))
				}
				continue
			}
			if len(subs) != len(gold) {
				t.Fatalf("compound claim %s decomposed into %d parts, want %d (%q)", cl.ID, len(subs), len(gold), cl.Sentence)
			}
			if subs[0].Value != cl.Value {
				t.Errorf("claim %s: first sub value %q, parent value %q", cl.ID, subs[0].Value, cl.Value)
			}
			for j, sub := range subs {
				again := route.Decompose(sub.Sentence, sub.Value, sub.Context)
				if len(again) != 1 {
					t.Errorf("claim %s sub %d re-decomposed into %d parts (%q)", cl.ID, j, len(again), sub.Sentence)
				}
			}
		}
	}
}

// TestRouteBenchRoutingAccuracy is the acceptance gate's accuracy floor, at
// three corpus seeds and through both ways a conjunct gets bound: the
// catalog's Bind on each decomposed sub-claim, and route.PlanDocuments, the
// planner the verification path runs. Each must hit the gold entry at least
// 90% of the time.
func TestRouteBenchRoutingAccuracy(t *testing.T) {
	for _, seed := range []int64{7, 11, 31} {
		c := mustRouteBench(t, seed)
		cat := route.NewCatalog(c.Databases...)
		if cat.Len() != 6 {
			t.Fatalf("seed %d: catalog has %d entries, want 6", seed, cat.Len())
		}
		total, correct := 0, 0
		for _, d := range c.Docs {
			for i, cl := range d.Claims {
				gold, ok := c.Gold[cl.ID]
				if !ok {
					continue
				}
				subs := route.Decompose(cl.Sentence, cl.Value, cl.Context)
				if len(subs) != len(gold) {
					t.Fatalf("seed %d claim %s: %d subs vs %d gold labels", seed, cl.ID, len(subs), len(gold))
				}
				for j, sub := range subs {
					entry, _, _ := cat.Bind(seed, d.ID, i, j, sub)
					if entry == nil {
						t.Fatalf("seed %d claim %s sub %d: no binding", seed, cl.ID, j)
					}
					total++
					if entry.Name() == gold[j] {
						correct++
					} else {
						t.Logf("seed %d misroute %s sub %d: got %s want %s (%q)", seed, cl.ID, j, entry.Name(), gold[j], sub.Sentence)
					}
				}
			}
		}
		checkRoutingAccuracy(t, seed, "bind", correct, total)

		plan := route.PlanDocuments(c.Docs, cat, route.Options{Seed: seed})
		total, correct = 0, 0
		for _, r := range plan.Routed {
			gold := c.Gold[r.Claim.ID]
			if len(gold) != len(r.Units) {
				t.Fatalf("seed %d claim %s: planned %d units, gold has %d", seed, r.Claim.ID, len(r.Units), len(gold))
			}
			for j, u := range r.Units {
				total++
				if u.Entry.Name() == gold[j] {
					correct++
				}
			}
		}
		if total != c.SubClaims {
			t.Fatalf("seed %d: planned %d sub-claims, corpus has %d", seed, total, c.SubClaims)
		}
		checkRoutingAccuracy(t, seed, "plan", correct, total)
	}
}

func checkRoutingAccuracy(t *testing.T, seed int64, path string, correct, total int) {
	t.Helper()
	acc := float64(correct) / float64(total)
	t.Logf("seed %d %s: routing accuracy %.3f (%d/%d)", seed, path, acc, correct, total)
	if acc < 0.9 {
		t.Fatalf("seed %d %s: routing accuracy %.3f below the 0.9 acceptance floor", seed, path, acc)
	}
}
