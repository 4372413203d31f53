// Package llm defines the model-agnostic large-language-model interface the
// CEDAR pipeline is written against, plus token accounting and a monetary
// cost ledger. The paper's implementation calls OpenAI's GPT series; this
// repository plugs in the simulated model family from llm/sim, which
// reproduces the observables CEDAR depends on — success probability, token
// consumption, per-token fees, and temperature-dependent randomization —
// without network access.
package llm

import (
	"errors"
	"time"

	"repro/internal/trace"
)

// Role names for chat messages.
const (
	RoleSystem    = "system"
	RoleUser      = "user"
	RoleAssistant = "assistant"
)

// Message is one chat turn.
type Message struct {
	Role    string
	Content string
}

// Request is a completion request against a named model.
type Request struct {
	Model       string
	Messages    []Message
	Temperature float64
	// MaxTokens caps the completion length; zero means provider default.
	MaxTokens int
	// Seed identifies this invocation for sampling purposes, the analog of
	// OpenAI's `seed` parameter. At temperature > 0 providers that support
	// seeding draw their randomness from (prompt, Seed) rather than a shared
	// stream, so concurrent callers get reproducible completions no matter
	// how their requests interleave. Zero is a valid seed; temperature-0
	// completions ignore it (they are deterministic per prompt already).
	Seed int64
	// Attempt is the pipeline attempt identity (doc, claim, method, try) this
	// request serves, carried so middleware can label trace spans. The zero
	// Key marks anonymous traffic (profiling, ad-hoc calls); it does not
	// affect completion semantics and is excluded from cache keys.
	Attempt trace.Key
}

// Usage reports token consumption of one completion.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Total returns the combined token count.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Add accumulates another usage record.
func (u Usage) Add(o Usage) Usage {
	return Usage{
		PromptTokens:     u.PromptTokens + o.PromptTokens,
		CompletionTokens: u.CompletionTokens + o.CompletionTokens,
	}
}

// Response is the result of one completion.
type Response struct {
	Content string
	Usage   Usage
	// Latency is the (simulated) wall-clock time of the call, used for the
	// throughput axis of Figure 5.
	Latency time.Duration
}

// Client is a completion provider.
type Client interface {
	// Complete runs one chat completion.
	Complete(req Request) (Response, error)
}

// ErrUnknownModel is returned for requests naming an unregistered model.
var ErrUnknownModel = errors.New("llm: unknown model")

// PromptText flattens a message list to plain text, the form consumed by
// token counting and by the simulated models. A single message is its own
// text, returned without a copy; only multi-turn conversations are joined.
func PromptText(msgs []Message) string {
	if len(msgs) == 1 {
		return msgs[0].Content
	}
	n := 0
	for _, m := range msgs {
		n += len(m.Content) + 1
	}
	buf := make([]byte, 0, n)
	for i, m := range msgs {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, m.Content...)
	}
	return string(buf)
}
