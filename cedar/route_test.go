package cedar

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/schedule"
)

// routeTestStats profiles one system and returns its method statistics so the
// routing tests can share a single profiling pass.
func routeTestStats(t *testing.T) []schedule.MethodStats {
	t.Helper()
	sys, err := New(Options{Seed: 5, AccuracyTarget: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := Benchmark(BenchAggChecker, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	return sys.Stats()
}

// TestRoutePartitionInvariant is the recombination property test: after a
// routed run with transport faults, every claim lands in exactly one cell of
// {TP, FP, FN, TN, Failed} — no sub-claim lost or double-counted through
// decomposition and recombination.
func TestRoutePartitionInvariant(t *testing.T) {
	corpus, err := data.RouteBench(11)
	if err != nil {
		t.Fatal(err)
	}
	stats := routeTestStats(t)
	sys, err := New(Options{Seed: 5, AccuracyTarget: 0.99, Route: true, FaultRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetStats(stats); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCatalog(corpus.Databases...); err != nil {
		t.Fatal(err)
	}
	docs := claim.CloneDocuments(corpus.Docs)
	rep, err := sys.Verify(docs)
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Quality
	if got := q.TP + q.FP + q.FN + q.TN + q.Failed; got != rep.Claims {
		t.Fatalf("partition broken: TP+FP+FN+TN+Failed = %d, claims = %d (%+v)", got, rep.Claims, q)
	}
	if rep.Claims != claim.TotalClaims(corpus.Docs) {
		t.Fatalf("claim count %d, corpus has %d", rep.Claims, claim.TotalClaims(corpus.Docs))
	}
	if q.Failed == 0 {
		t.Error("fault rate 0.3 produced no failed claims; invariant untested")
	}
	// A compound claim whose sub-claim failed must itself read as failed.
	for _, d := range docs {
		for _, c := range d.Claims {
			if strings.HasPrefix(c.Result.Method, "route(") &&
				strings.Contains(c.Result.Method, claim.MethodFailed) {
				t.Errorf("claim %s: failed sub-claim not propagated: method %q", c.ID, c.Result.Method)
			}
		}
	}
}

// TestRouteBeatsHomeDatabase is routing's reason to exist: on the
// cross-database corpus, decomposing and routing compound claims must flag
// more of the planted incorrect conjuncts than verifying each claim whole
// against its document's home database, and only the routed run may book
// routing work.
func TestRouteBeatsHomeDatabase(t *testing.T) {
	for _, seed := range []int64{7, 11, 31} {
		corpus, err := data.RouteBench(seed)
		if err != nil {
			t.Fatal(err)
		}
		profDocs, err := data.AggChecker(seed + 1000003)
		if err != nil {
			t.Fatal(err)
		}
		run := func(routed bool) Report {
			sys, err := New(Options{Seed: seed, AccuracyTarget: 0.99, Route: routed})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.ProfileOn(profDocs[:8]); err != nil {
				t.Fatal(err)
			}
			if routed {
				if err := sys.SetCatalog(corpus.Databases...); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := sys.Verify(claim.CloneDocuments(corpus.Docs))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		routed, home := run(true), run(false)
		t.Logf("seed %d: routed F1 %.3f, home-db F1 %.3f", seed, routed.Quality.F1, home.Quality.F1)
		if routed.Quality.F1 <= home.Quality.F1 {
			t.Errorf("seed %d: routed F1 %.3f not above home-db F1 %.3f", seed, routed.Quality.F1, home.Quality.F1)
		}
		if routed.RouteDollars <= 0 || routed.RoutedSubClaims != corpus.SubClaims {
			t.Errorf("seed %d: routed run booked $%v routing for %d sub-claims, corpus has %d",
				seed, routed.RouteDollars, routed.RoutedSubClaims, corpus.SubClaims)
		}
		if home.RouteDollars != 0 || home.RoutedSubClaims != 0 {
			t.Errorf("seed %d: home-db run booked routing work: $%v, %d sub-claims", seed, home.RouteDollars, home.RoutedSubClaims)
		}
	}
}

func TestRouteNoCatalog(t *testing.T) {
	stats := routeTestStats(t)
	sys, err := New(Options{Seed: 5, Route: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetStats(stats); err != nil {
		t.Fatal(err)
	}
	docs, _ := Benchmark(BenchAggChecker, 1002)
	if _, err := sys.Verify(docs[:1]); !errors.Is(err, ErrNoCatalog) {
		t.Fatalf("err = %v, want ErrNoCatalog", err)
	}
}

func TestSetCatalogValidation(t *testing.T) {
	sys, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCatalog(); err == nil {
		t.Error("empty SetCatalog accepted")
	}
	if err := sys.SetCatalog(NewDatabase("empty")); err == nil {
		t.Error("tableless catalog accepted")
	}
	if sys.Catalog() != nil {
		t.Error("failed registration left a catalog behind")
	}
}

func TestRoutedScheduleReporting(t *testing.T) {
	sys, err := New(Options{Seed: 5, Route: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.RoutedSchedule(); got != "(not planned)" {
		t.Errorf("unplanned routed schedule = %q", got)
	}
	if err := sys.SetStats(routeTestStats(t)); err != nil {
		t.Fatal(err)
	}
	routed, plain := sys.RoutedSchedule(), sys.Schedule()
	if routed == plain {
		t.Errorf("routed schedule %q identical to plain schedule; fee not priced in", routed)
	}
	off, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := off.SetStats(sys.Stats()); err != nil {
		t.Fatal(err)
	}
	if off.RoutedSchedule() != off.Schedule() {
		t.Error("RoutedSchedule with routing off must render the plain schedule")
	}
}
