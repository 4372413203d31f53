package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// fingerprint hashes everything the generator hands a run: the operation
// list, every request body, the profiling and template documents, the CSV.
func fingerprint(in *inputs) string {
	h := sha256.New()
	for _, ops := range [][]op{in.warm, in.ops} {
		for _, o := range ops {
			fmt.Fprintln(h, o)
			if in.claimsJSON != nil {
				for _, d := range o.docs {
					h.Write(in.body(d))
				}
			}
		}
	}
	for _, d := range append(append(in.profile[:0:0], in.profile...), in.templates...) {
		fmt.Fprintln(h, d.ID, d.Data.Name, d.Data.Schema())
		for _, c := range d.Claims {
			fmt.Fprintln(h, c.ID, c.Sentence, c.Value, c.Context, c.Gold.Query, c.Gold.Correct)
		}
	}
	h.Write(in.csv)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) *inputs {
			in, err := w.generate(seed, 0.5)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return in
		}
		a, again, b := gen(5), gen(5), gen(6)
		if fingerprint(a) != fingerprint(again) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if fingerprint(a) == fingerprint(b) {
			t.Errorf("%s: seeds 5 and 6 generated the same inputs", w.name)
		}
		if len(a.ops) != len(b.ops) {
			t.Errorf("%s: %d operations at seed 5, %d at seed 6: the list's size must not depend on the seed", w.name, len(a.ops), len(b.ops))
		}
	}
}

// TestProgramSeesGeneratedInputsOnly pins the one-way street from seed to
// program: the system is built from the workload's constant topology and a
// fixed profiling corpus, and nothing generated names the workload.
func TestProgramSeesGeneratedInputsOnly(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(6, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if a.topo != w.topo || b.topo != w.topo {
			t.Errorf("%s: topology depends on the seed: %+v, %+v", w.name, a.topo, b.topo)
		}
		if len(a.profile) != w.topo.profileDocs {
			t.Errorf("%s: %d profiling documents, want %d", w.name, len(a.profile), w.topo.profileDocs)
		}
		for i := range a.profile {
			if a.profile[i].ID != b.profile[i].ID || a.profile[i].Claims[0].Sentence != b.profile[i].Claims[0].Sentence {
				t.Errorf("%s: the profiling corpus depends on the seed, and with it the schedule", w.name)
				break
			}
		}
		for _, ops := range [][]op{a.warm, a.ops} {
			for _, o := range ops {
				for _, d := range o.docs {
					if strings.Contains(d.id, w.name) {
						t.Fatalf("%s: document ID %q names the workload", w.name, d.id)
					}
					if a.claimsJSON != nil && strings.Contains(string(a.body(d)), w.name) {
						t.Fatalf("%s: the request for %q names the workload", w.name, d.id)
					}
				}
			}
		}
	}
}

// TestSampleIsSeeded checks the reference sample is about one document in
// sampleOneIn and moves with the seed.
func TestSampleIsSeeded(t *testing.T) {
	w := workloadByName("tier-cpu")
	a, err := w.generate(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.generate(6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	picked, differ, total := 0, 0, 0
	for _, o := range a.ops {
		for _, d := range o.docs {
			total++
			if a.sampled(d.id) {
				picked++
			}
			if a.sampled(d.id) != b.sampled(d.id) {
				differ++
			}
		}
	}
	if want := total / sampleOneIn; picked < want/2 || picked > want*2 {
		t.Errorf("sampled %d of %d documents, want about %d", picked, total, want)
	}
	if differ == 0 {
		t.Error("seeds 5 and 6 sample the same documents")
	}
}
