package llm

import (
	"time"

	"repro/internal/fee"
)

// Pricing is a model's fee schedule per token, plus its simulated
// generation speed for the throughput axis of Figure 5.
type Pricing struct {
	InPerToken  fee.Fee // per prompt token
	OutPerToken fee.Fee // per completion token
	// TokensPerSecond is the simulated completion speed. Larger models
	// stream slower; latency also includes PerCallOverhead.
	TokensPerSecond float64
	PerCallOverhead time.Duration
}

// Cost returns the fee of a usage record under this schedule.
func (p Pricing) Cost(u Usage) fee.Fee {
	return fee.Fee(u.PromptTokens)*p.InPerToken + fee.Fee(u.CompletionTokens)*p.OutPerToken
}

// Latency returns the simulated wall time of a completion under this
// schedule.
func (p Pricing) Latency(u Usage) time.Duration {
	if p.TokensPerSecond <= 0 {
		return p.PerCallOverhead
	}
	gen := time.Duration(float64(u.CompletionTokens) / p.TokensPerSecond * float64(time.Second))
	// Prompt ingestion is an order of magnitude faster than generation.
	ingest := time.Duration(float64(u.PromptTokens) / (10 * p.TokensPerSecond) * float64(time.Second))
	return p.PerCallOverhead + gen + ingest
}

// Canonical model names of the simulated GPT family used across the
// repository. The fee schedules mirror the published OpenAI prices at the
// time of the paper's evaluation, so relative cost ratios between methods
// match the paper's.
const (
	ModelGPT35 = "sim-gpt-3.5-turbo"
	ModelGPT4o = "sim-gpt-4o"
	ModelGPT41 = "sim-gpt-4.1"
)

// DefaultPricing is the fee schedule per canonical model (500 = $0.0005/1K).
var DefaultPricing = map[string]Pricing{
	ModelGPT35: {InPerToken: 500, OutPerToken: 1500, TokensPerSecond: 120, PerCallOverhead: 300 * time.Millisecond},
	ModelGPT4o: {InPerToken: 2500, OutPerToken: 10000, TokensPerSecond: 70, PerCallOverhead: 500 * time.Millisecond},
	ModelGPT41: {InPerToken: 2000, OutPerToken: 8000, TokensPerSecond: 50, PerCallOverhead: 600 * time.Millisecond},
}

// PriceFor returns the fee schedule of a model name, defaulting to the
// GPT-4o schedule for unknown names so cost accounting never silently
// reports zero.
func PriceFor(model string) Pricing {
	if p, ok := DefaultPricing[model]; ok {
		return p
	}
	return DefaultPricing[ModelGPT4o]
}
