// Package profile estimates the per-method success probability and expected
// cost that CEDAR's cost-based scheduler consumes (Section 6.1). Profiling
// runs each verification method over a labeled sample of claims and reads
// token fees off the metered ledger.
package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// SaveStats writes profiling statistics to a JSON file, so profiling (which
// needs labeled data and costs model fees) can run once and be reused
// across verification sessions — and refreshed when models evolve, as
// Section 7.3.3 advises.
func SaveStats(path string, stats []schedule.MethodStats) error {
	raw, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: encode stats: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("profile: write stats: %w", err)
	}
	return nil
}

// LoadStats reads profiling statistics written by SaveStats.
func LoadStats(path string) ([]schedule.MethodStats, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profile: read stats: %w", err)
	}
	var stats []schedule.MethodStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		return nil, fmt.Errorf("profile: decode stats %s: %w", path, err)
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("profile: %s contains no method statistics", path)
	}
	for _, s := range stats {
		if s.Name == "" || s.Accuracy <= 0 || s.Accuracy > 1 || s.Cost <= 0 {
			return nil, fmt.Errorf("profile: invalid stats entry %+v in %s", s, path)
		}
	}
	return stats, nil
}

// Run profiles each method over the documents and returns scheduler stats.
// Every attempt runs at temperature 0, as the first try of the production
// schedule does. The ledger must be the one metering the methods' clients;
// it is reset around each method so fees attribute correctly.
func Run(methods []verify.Method, docs []*claim.Document, ledger *llm.Ledger) ([]schedule.MethodStats, error) {
	if len(methods) == 0 {
		return nil, fmt.Errorf("profile: no methods")
	}
	var out []schedule.MethodStats
	for _, m := range methods {
		ledger.Reset()
		attempts, successes := 0, 0
		var wall time.Duration
		for _, d := range docs {
			for _, c := range d.Claims {
				cc := *c // never mutate the profiling corpus
				attempts++
				if verify.Attempt(m, &cc, d.Data, nil, 0) {
					successes++
				}
			}
		}
		if attempts == 0 {
			return nil, fmt.Errorf("profile: empty corpus")
		}
		wall = ledger.TotalWall()
		stats := schedule.MethodStats{
			Name:     m.Name(),
			Cost:     ledger.TotalDollars() / float64(attempts),
			Accuracy: float64(successes) / float64(attempts),
			Wall:     wall / time.Duration(attempts),
		}
		// Guard degenerate estimates so the scheduler stays well-defined:
		// a method that never succeeded still gets epsilon accuracy, and a
		// free method still gets epsilon cost.
		if stats.Accuracy <= 0 {
			stats.Accuracy = 0.01
		}
		if stats.Accuracy >= 1 {
			stats.Accuracy = 0.995
		}
		if stats.Cost <= 0 {
			stats.Cost = 1e-6
		}
		out = append(out, stats)
		ledger.Reset()
	}
	return out, nil
}
