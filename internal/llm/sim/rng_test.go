package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/llm"
)

// referenceRNGFor and referenceConversationRNG derive a completion's
// randomness as the model did before the hash was inlined and the source
// made lazy: hash/fnv over byte-slice copies, fmt for the temperature, a
// fully seeded math/rand source.
func referenceRNGFor(m *Model, prompt string, req llm.Request) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(m.profile.Name))
	_, _ = h.Write([]byte(prompt))
	if req.Temperature > 0 {
		_, _ = h.Write([]byte(samplingSalt))
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], uint64(m.seed))
		binary.LittleEndian.PutUint64(buf[8:], uint64(req.Seed))
		_, _ = h.Write(buf[:])
		fmt.Fprintf(h, "%.4f", req.Temperature)
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func referenceConversationRNG(m *Model, base string, req llm.Request) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(m.profile.Name))
	_, _ = h.Write([]byte(base))
	fmt.Fprintf(h, "%.4f", req.Temperature)
	if req.Temperature > 0 {
		_, _ = h.Write([]byte(samplingSalt))
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], uint64(m.seed))
		binary.LittleEndian.PutUint64(buf[8:], uint64(req.Seed))
		_, _ = h.Write(buf[:])
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// TestDifferentialCompletionRNG: same hash, same stream, for both derivations
// over temperatures (including ones "%.4f" rounds, and negative zero), model
// seeds and request seeds.
func TestDifferentialCompletionRNG(t *testing.T) {
	temps := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.99995, 1, 1.5, 0.00004, 0.00005, 2, 1e9, 1.0 / 3}
	promptTexts := []string{"", "p", oneShotPrompt(simDB(t), "Aer Lingus recorded x incidents between 1985 and 1999."), "café \xff"}
	for _, name := range []string{llm.ModelGPT35, llm.ModelGPT41} {
		for _, modelSeed := range []int64{0, 1, -9, math.MaxInt64} {
			m, err := New(name, modelSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, temp := range temps {
				for _, reqSeed := range []int64{0, 7, math.MinInt64} {
					for _, p := range promptTexts {
						req := llm.Request{Temperature: temp, Seed: reqSeed, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}}
						h, _ := m.readPrompt(req.Messages, p)
						pairs := [][2]*rand.Rand{
							{m.rngFrom(h, req), referenceRNGFor(m, p, req)},
							{m.conversationRNG(p, req), referenceConversationRNG(m, p, req)},
						}
						for which, pair := range pairs {
							for i := 0; i < 12; i++ {
								if g, w := pair[0].Float64(), pair[1].Float64(); g != w {
									t.Fatalf("%s seed %d temp %v req %d prompt %q derivation %d draw %d: %v, reference %v",
										name, modelSeed, temp, reqSeed, p, which, i, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCompleteAllocCeiling pins a warm completion's allocation count. Before
// the model compiled its prompt reading it spent, on these requests, 77
// (gpt-3.5 one-shot), 92 (gpt-3.5 agent turn), 126 (gpt-4o one-shot) and 141
// (gpt-4o agent turn); compiled, 30, 31, 46 and 47. Read in place and in one
// pass, with an exactly sized query and completion and a parse that
// normalises each text once, they are the ceilings below; the spec that
// corrupt's closures capture is one of them, and embed.Normalize's copies of
// the context are most of gpt-4o's. An agent turn
// formats its reply with fmt, whose printer cache is a sync.Pool that the
// race detector empties at random, so agent turns get one allocation of
// headroom.
func TestCompleteAllocCeiling(t *testing.T) {
	db := simDB(t)
	const masked = "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
	oneShot := oneShotPrompt(db, masked)
	agent := agentPrompt(db, masked, masked) // a paragraph of one sentence: neither tier derails on it
	for _, tc := range []struct {
		model, name, prompt string
		ceiling             float64
	}{
		{llm.ModelGPT35, "one-shot", oneShot, 8}, {llm.ModelGPT35, "agent turn", agent, 14 + 1},
		{llm.ModelGPT4o, "one-shot", oneShot, 24}, {llm.ModelGPT4o, "agent turn", agent, 30 + 1},
	} {
		m, err := New(tc.model, 1)
		if err != nil {
			t.Fatal(err)
		}
		req := llm.Request{Model: tc.model, Messages: []llm.Message{{Role: llm.RoleUser, Content: tc.prompt}}}
		if _, err := m.Complete(req); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = m.Complete(req) }); got > tc.ceiling {
			t.Errorf("%s %s: %.0f allocations per completion, ceiling %.0f", tc.model, tc.name, got, tc.ceiling)
		}
	}
}
