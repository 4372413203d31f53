// Package sim implements the simulated language-model family standing in
// for the OpenAI GPT series the paper uses. A simulated model reads the
// actual prompt text (claim, schema, few-shot sample, context), parses the
// masked claim through the nl layer the way an LLM reads English, and
// produces either a one-shot SQL translation or ReAct-formatted agent steps.
//
// Failures are not scripted per claim; they emerge from the same mechanisms
// the paper describes: entity aliases that do not occur in the data,
// ambiguous column phrases, unit mismatches, unsupported claim shapes for
// weaker tiers, and temperature-dependent random corruption. Stronger tiers
// read context, handle unit conversions, and make fewer mistakes — at a
// higher per-token price (see llm.DefaultPricing).
package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"unicode/utf8"

	"repro/internal/llm"
	"repro/internal/nl"
	"repro/internal/prompts"
)

// Profile describes one simulated model tier.
type Profile struct {
	// Name is the canonical model name (llm.ModelGPT35, ...).
	Name string
	// KindSkill is the per-claim-kind probability of a structurally
	// correct translation before other noise sources.
	KindSkill map[nl.Kind]float64
	// NoiseZero is the base corruption probability at temperature 0.
	NoiseZero float64
	// NoisePerTemp is the additional corruption probability per unit of
	// temperature.
	NoisePerTemp float64
	// AgentExtraNoise is added to the corruption probability in agent
	// conversations: long multi-turn trajectories drift more than single
	// completions, and the agent's willingness to accept "close" feedback
	// lets wrong interpretations slip through.
	AgentExtraNoise float64
	// DerailProb is the probability that an agent conversation derails —
	// the model stops following the ReAct format and never reaches a
	// final answer, a notorious failure mode of LLM agent scaffolding.
	DerailProb float64
	// JoinSkill is the probability of correctly formulating a query that
	// requires joins over a normalized schema; weaker tiers often fail
	// multi-table reasoning (Section 7.3.2's cost increase comes from
	// join claims escalating to stronger methods).
	JoinSkill float64
	// ReadsContext controls whether the model uses the claim context to
	// disambiguate underspecified column phrases.
	ReadsContext bool
	// UnitSkill controls whether the model applies unit conversions when
	// claims use different units than the data.
	UnitSkill bool
	// FewShotBoost multiplies noise when a few-shot sample is present
	// (values < 1 mean samples help).
	FewShotBoost float64
	// CheatProb is the probability of echoing the claim value as a SQL
	// constant when the prompt was not masked (Figure 2's failure mode).
	CheatProb float64
	// Verbosity scales the length of reasoning filler in responses, which
	// drives completion-token costs.
	Verbosity int
}

func skills(base float64, overrides map[nl.Kind]float64) map[nl.Kind]float64 {
	m := make(map[nl.Kind]float64)
	for k := nl.KindLookup; k <= nl.KindMode; k++ {
		m[k] = base
	}
	for k, v := range overrides {
		m[k] = v
	}
	return m
}

// Profiles returns the default tier definitions keyed by model name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		llm.ModelGPT35: {
			Name: llm.ModelGPT35,
			KindSkill: skills(0.8, map[nl.Kind]float64{
				nl.KindLookup:   0.88,
				nl.KindCountAll: 0.88,
				nl.KindAvg:      0.75,
				nl.KindMin:      0.72,
				nl.KindMax:      0.72,
				nl.KindDiff:     0.3,
				nl.KindArgMax:   0.3,
				nl.KindArgMin:   0.3,
				nl.KindPercent:  0.4,
				nl.KindMode:     0.25,
			}),
			NoiseZero:       0.06,
			NoisePerTemp:    0.2,
			AgentExtraNoise: 0.1,
			DerailProb:      0.15,
			JoinSkill:       0.3,
			ReadsContext:    false,
			UnitSkill:       false,
			FewShotBoost:    0.55,
			CheatProb:       0.8,
			Verbosity:       1,
		},
		llm.ModelGPT4o: {
			Name: llm.ModelGPT4o,
			KindSkill: skills(0.96, map[nl.Kind]float64{
				nl.KindDiff:    0.88,
				nl.KindArgMax:  0.9,
				nl.KindArgMin:  0.9,
				nl.KindPercent: 0.86,
				nl.KindMode:    0.85,
			}),
			NoiseZero:       0.07,
			NoisePerTemp:    0.16,
			AgentExtraNoise: 0.05,
			DerailProb:      0.12,
			JoinSkill:       0.8,
			ReadsContext:    true,
			UnitSkill:       true,
			FewShotBoost:    0.65,
			CheatProb:       0.7,
			Verbosity:       2,
		},
		llm.ModelGPT41: {
			Name: llm.ModelGPT41,
			KindSkill: skills(0.975, map[nl.Kind]float64{
				nl.KindDiff:    0.92,
				nl.KindArgMax:  0.94,
				nl.KindArgMin:  0.94,
				nl.KindPercent: 0.9,
				nl.KindMode:    0.9,
			}),
			NoiseZero:       0.05,
			NoisePerTemp:    0.12,
			AgentExtraNoise: 0.04,
			DerailProb:      0.1,
			JoinSkill:       0.85,
			ReadsContext:    true,
			UnitSkill:       true,
			FewShotBoost:    0.65,
			CheatProb:       0.6,
			Verbosity:       3,
		},
	}
}

// Model is a simulated LLM implementing llm.Client. A Model holds no
// mutable state — all randomness is derived per completion from the prompt
// and the request seed — so one instance is safe for any number of
// concurrent callers, and outcomes never depend on request ordering.
type Model struct {
	profile Profile
	lex     *nl.Lexicon
	seed    int64
}

// New constructs a simulated model by canonical name. The seed drives the
// model's sampling randomness (used at temperature > 0): models built with
// different seeds sample different completions for the same request.
func New(name string, seed int64) (*Model, error) {
	p, ok := Profiles()[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", llm.ErrUnknownModel, name)
	}
	return &Model{
		profile: p,
		lex:     nl.DefaultLexicon(),
		seed:    seed,
	}, nil
}

// Profile returns the model's tier definition.
func (m *Model) Profile() Profile { return m.profile }

// Complete implements llm.Client. It dispatches between the one-shot
// translation behaviour and the ReAct agent behaviour based on the prompt.
func (m *Model) Complete(req llm.Request) (llm.Response, error) {
	if req.Model != "" && req.Model != m.profile.Name {
		return llm.Response{}, fmt.Errorf("%w: model %q served by %q", llm.ErrUnknownModel, req.Model, m.profile.Name)
	}
	// The prompt is read in place: one message is its own text, and its
	// markers are located once for every section the model reads.
	layout := prompts.Locate(llm.PromptText(req.Messages))

	var content string
	var promptTokens int
	if layout.IsAgent() {
		content = m.agentStep(&layout, req)
		promptTokens = llm.CountMessageTokens(req.Messages)
	} else {
		var h uint64
		h, promptTokens = m.readPrompt(req.Messages, layout.Text())
		content = m.oneShot(&layout, req.Temperature, m.rngFrom(h, req))
	}
	usage := llm.Usage{
		PromptTokens:     promptTokens,
		CompletionTokens: llm.CountTokens(content),
	}
	return llm.Response{
		Content: content,
		Usage:   usage,
		Latency: llm.PriceFor(m.profile.Name).Latency(usage),
	}, nil
}

// readPrompt is the one pass a one-shot completion makes over its prompt,
// the flattened msgs. It returns the FNV-1a hash of the model name and the
// prompt, which rngFrom seeds the completion from, and the request's prompt
// tokens, llm.CountMessageTokens(msgs).
func (m *Model) readPrompt(msgs []llm.Message, prompt string) (h uint64, tokens int) {
	h, words, ascii := fnvAddWords(fnvAdd(fnvOffset64, m.profile.Name), prompt)
	if ascii && len(msgs) == 1 {
		return h, llm.SingleMessageTokens(len(prompt), words)
	}
	return h, llm.CountMessageTokens(msgs)
}

// samplingSalt versions the temperature > 0 sampling streams. Bumping it
// re-rolls every seeded retry at once (the simulated analog of a provider
// updating model weights) without disturbing temperature-0 determinism.
const samplingSalt = "sampling-v1"

// rngFrom returns the randomness source for one completion from its prompt
// hash (readPrompt). At temperature zero the model is deterministic per
// prompt (like real sampling with temperature 0): the same input always
// yields the same output, so retrying at temperature 0 cannot change the
// outcome. At higher temperatures the randomness is derived from (prompt,
// model seed, request seed, temperature) — splittable seeding instead of a
// shared stream. Callers that thread a fresh Request.Seed per retry (as the
// pipeline does, keyed on document, claim, method, and try) get the
// genuinely-varying retries CEDAR's scheduling relies on (Assumption 1),
// while concurrent completions can never perturb each other.
func (m *Model) rngFrom(h uint64, req llm.Request) *rand.Rand {
	if req.Temperature > 0 {
		h = m.mixSampling(h, req)
		h = fnvTemperature(h, req.Temperature)
	}
	return llm.NewRand(int64(h))
}

// FNV-1a, 64 bit, over strings in place: hash/fnv's Write takes a []byte,
// and converting a prompt to one copied kilobytes per completion. The
// values are hash/fnv's.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts: the word boundaries llm.CountTokens counts on ASCII text.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// fnvAddWords is fnvAdd(h, s) that also counts the whitespace-delimited
// words of s, len(strings.Fields(s)), in the same loop. FNV-1a is a chain of
// dependent multiplies, so the count's independent work per byte rides in
// its latency nearly free. A non-ASCII byte ends the count (ascii false,
// words meaningless): Unicode spaces need decoding, which the caller leaves
// to llm's exact count.
func fnvAddWords(h uint64, s string) (hash uint64, words int, ascii bool) {
	inSpace := uint8(1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return fnvAdd(h, s[i:]), 0, false
		}
		h = (h ^ uint64(c)) * fnvPrime64
		space := asciiSpace[c]
		words += int(inSpace &^ space)
		inSpace = space
	}
	return h, words, true
}

// mixSampling folds in what makes a temperature > 0 stream its own: the
// salt, the model seed and the request seed.
func (m *Model) mixSampling(h uint64, req llm.Request) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(req.Seed))
	return fnvAdd(fnvAdd(h, samplingSalt), buf[:])
}

// fnvTemperature folds in the temperature as "%.4f" renders it.
func fnvTemperature(h uint64, t float64) uint64 {
	var buf [32]byte
	return fnvAdd(h, strconv.AppendFloat(buf[:0], t, 'f', 4, 64))
}

// noise returns the corruption probability at the given temperature, with
// the few-shot discount applied when a sample is present.
func (m *Model) noise(temperature float64, hasSample bool) float64 {
	n := m.profile.NoiseZero + m.profile.NoisePerTemp*temperature
	if hasSample {
		n *= m.profile.FewShotBoost
	}
	if n > 0.95 {
		n = 0.95
	}
	return n
}
