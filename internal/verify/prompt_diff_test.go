package verify

import (
	"errors"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompts"
)

// promptRecorder records the first message of the request it is sent and
// fails it, so a method's Translate stops at its first prompt.
type promptRecorder struct{ seen string }

var errRecorded = errors.New("recorded")

func (r *promptRecorder) Complete(req llm.Request) (llm.Response, error) {
	r.seen = req.Messages[0].Content
	return llm.Response{}, errRecorded
}

// referenceOneShotPrompt is OneShot.Translate's prompt as it was rendered
// before the sample was written straight into it.
func referenceOneShotPrompt(f prompts.Fill) string {
	block := ""
	if f.Sample != nil {
		block = prompts.Sample(f.Sample.MaskedClaim, f.Sample.Query)
	}
	return prompts.OneShot(f.Claim, f.ValueType, f.Schema, block, f.Context)
}

// TestDifferentialMethodPrompts holds the prompt each method sends to its
// Fill's rendering, over every claim of every generator corpus, masked and
// unmasked, with the document's previous claim as the few-shot sample, at
// temperature 0 and at a seeded retry's. The one-shot prompt is also held to
// the one Translate rendered before the sample was written straight into
// it: the sample block on its own, then the template. (The prompts package
// holds both renderings to the fmt renderers.)
func TestDifferentialMethodPrompts(t *testing.T) {
	rec := &promptRecorder{}
	oneShot := NewOneShot(rec, llm.ModelGPT4o, "oneshot-gpt4o")
	agent := NewAgent(rec, llm.ModelGPT4o, "agent-gpt4o", 7)
	compared := 0
	for name, docs := range generatorCorpora(t, 59) {
		for _, d := range docs {
			var sample *Sample
			for ci, c := range d.Claims {
				for _, mask := range []bool{true, false} {
					oneShot.Mask, agent.Mask = mask, mask
					for _, temp := range []float64{0, 0.5} {
						inv := Invocation{Sample: sample, Temperature: temp, Seed: int64(ci)}
						fill := promptFill(c, d.Data, inv, mask)
						for _, m := range []Method{oneShot, agent} {
							cc := *c
							if _, err := m.Translate(&cc, d.Data, inv); !errors.Is(err, errRecorded) {
								t.Fatalf("%s %s %s: Translate returned %v", name, c.ID, m.Name(), err)
							}
							want := fill.OneShot()
							if m == agent {
								want = fill.Agent(agent.nonce(inv))
							} else if old := referenceOneShotPrompt(fill); old != want {
								t.Fatalf("%s %s: one-shot prompt %q, rendered with the sample first %q", name, c.ID, want, old)
							}
							if rec.seen != want {
								t.Fatalf("%s %s %s mask=%v temp %v: sent %q\nwant %q", name, c.ID, m.Name(), mask, temp, rec.seen, want)
							}
							compared++
						}
					}
				}
				in := c.Inputs()
				sample = &Sample{MaskedClaim: in.Masked, Query: c.Gold.Query}
			}
		}
	}
	t.Logf("%d prompts compared", compared)
}
