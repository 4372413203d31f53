package cedar

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// routeTestStats profiles one system and returns its method statistics so the
// determinism-matrix runs can share a single profiling pass.
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

// routeRunSignature renders everything the routing determinism gate pins:
// every claim's full verdict, the run's fee accounting, and the normalized
// trace.
func routeRunSignature(docs []*Document, rep Report, spans []trace.Span) string {
	var b strings.Builder
	for _, d := range docs {
		for _, c := range d.Claims {
			r := c.Result
			fmt.Fprintf(&b, "%s/%s verified=%t correct=%t executable=%t attempts=%d method=%s query=%q failure=%q\n",
				d.ID, c.ID, r.Verified, r.Correct, r.Executable, r.Attempts, r.Method, r.Query, r.Failure)
		}
	}
	fmt.Fprintf(&b, "dollars=%.10f routed=%d routefee=%.10f calls=%d\n",
		rep.Dollars, rep.RoutedSubClaims, rep.RouteDollars, rep.Calls)
	for _, s := range trace.ReplayNormalize(spans) {
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return b.String()
}

// TestRouteDeterminismMatrix is the `make route` gate's core claim: verdicts,
// fees, and normalized traces of cross-database compound claims are
// bit-identical across worker counts, at every fault rate.
func TestRouteDeterminismMatrix(t *testing.T) {
	corpus, err := data.RouteBench(7)
	if err != nil {
		t.Fatal(err)
	}
	stats := routeTestStats(t)
	for _, fault := range []float64{0, 0.2} {
		var baseline string
		for _, workers := range []int{1, 8} {
			tr := NewTracer()
			sys, err := New(Options{
				Seed: 5, AccuracyTarget: 0.99, Workers: workers,
				FaultRate: fault, Route: true, Tracer: tr,
			})
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
			if rep.RoutedSubClaims != corpus.SubClaims {
				t.Errorf("fault=%v workers=%d: routed %d sub-claims, corpus has %d",
					fault, workers, rep.RoutedSubClaims, corpus.SubClaims)
			}
			if rep.RouteDollars <= 0 || rep.Dollars <= rep.RouteDollars {
				t.Errorf("fault=%v workers=%d: fee accounting %+v", fault, workers, rep)
			}
			sig := routeRunSignature(docs, rep, tr.Spans())
			if baseline == "" {
				baseline = sig
				continue
			}
			if sig != baseline {
				t.Errorf("fault=%v: workers=%d run diverges from workers=1 run:\n%s",
					fault, workers, firstDiff(baseline, sig))
			}
		}
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// TestRouteSingleDBDegenerate pins the degenerate case: with routing enabled
// over a corpus of simple (non-compound) claims, every observable — report
// string, verdicts, fees, raw trace — is byte-identical to routing disabled.
func TestRouteSingleDBDegenerate(t *testing.T) {
	stats := routeTestStats(t)
	run := func(routeOn bool) (string, Report, []trace.Span, []*Document) {
		tr := NewTracer()
		sys, err := New(Options{Seed: 5, AccuracyTarget: 0.99, Route: routeOn, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetStats(stats); err != nil {
			t.Fatal(err)
		}
		docs, err := Benchmark(BenchAggChecker, 1002)
		if err != nil {
			t.Fatal(err)
		}
		docs = docs[:6]
		if routeOn {
			dbs := make([]*Database, len(docs))
			for i, d := range docs {
				dbs[i] = d.Data
			}
			if err := sys.SetCatalog(dbs...); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sys.Verify(docs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String(), rep, tr.Spans(), docs
	}
	offStr, offRep, offSpans, offDocs := run(false)
	onStr, onRep, onSpans, onDocs := run(true)
	if offStr != onStr {
		t.Errorf("report strings differ:\noff: %s\non:  %s", offStr, onStr)
	}
	if onRep.RoutedSubClaims != 0 || onRep.RouteDollars != 0 {
		t.Errorf("simple claims booked routing work: %+v", onRep)
	}
	if offRep.Dollars != onRep.Dollars || offRep.Calls != onRep.Calls {
		t.Errorf("cost accounting differs: off %+v on %+v", offRep, onRep)
	}
	offSig := routeRunSignature(offDocs, offRep, nil)
	onSig := routeRunSignature(onDocs, onRep, nil)
	if offSig != onSig {
		t.Errorf("verdicts differ:\n%s", firstDiff(offSig, onSig))
	}
	// Raw spans, not just normalized: passthrough planning must not record a
	// single route span or perturb a sequence number.
	if len(offSpans) != len(onSpans) {
		t.Fatalf("span counts differ: %d vs %d", len(offSpans), len(onSpans))
	}
	for i := range offSpans {
		if fmt.Sprintf("%+v", offSpans[i]) != fmt.Sprintf("%+v", onSpans[i]) {
			t.Fatalf("span %d differs:\noff: %+v\non:  %+v", i, offSpans[i], onSpans[i])
		}
	}
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
