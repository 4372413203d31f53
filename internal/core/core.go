// Package core implements CEDAR's multi-stage claim verification
// (Algorithms 1 and 2): plan an optimal verification schedule from
// profiling statistics and a user accuracy constraint, then run the
// scheduled methods over each document's claims — cheap methods first,
// harvesting few-shot samples from early successes, escalating to expensive
// methods only for claims the cheap ones could not verify.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Config assembles a verification pipeline.
type Config struct {
	// Methods are the available verification approaches.
	Methods []verify.Method
	// Stats are the profiling records aligned with Methods by name.
	Stats []schedule.MethodStats
	// AccuracyTarget is the user's accuracy constraint in (0, 1]; the
	// scheduler minimizes cost subject to it (Section 3).
	AccuracyTarget float64
	// CostBudget, when positive, switches planning to the inverse knob:
	// maximize modeled accuracy subject to an expected per-claim dollar
	// budget (an extension beyond the paper, which only takes accuracy
	// targets). When set, AccuracyTarget is ignored.
	CostBudget float64
	// Seed is the base of the splittable seeding scheme: every model
	// invocation gets llm.SplitSeed(Seed, docID, claimIndex, method, try),
	// so temperature > 0 retries are reproducible per attempt identity and
	// results are bit-identical for any worker count.
	Seed int64
	// Workers bounds the number of concurrent claim verifications across
	// the pipeline (shared by all documents in flight). Values < 2 keep
	// every pass sequential. Parallelism never changes results — only
	// wall-clock time.
	Workers int
	// Tracer, when enabled, receives attempt identities and outcome spans:
	// the pipeline stamps every verify.Invocation with its
	// (doc, claim, method, try) key so middleware spans attribute correctly.
	// Nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// MaxTries bounds the retries per method a planned schedule may use.
const MaxTries = 2

// DefaultRetryTemperature is the Section 7.1 temperature ladder: temperature
// 0 for a method's first invocation, then 0.25 for one-shot methods and 0.5
// for agent methods.
func DefaultRetryTemperature(methodName string, try int) float64 {
	if try == 0 {
		return 0
	}
	if strings.Contains(methodName, "agent") {
		return 0.5
	}
	return 0.25
}

// Pipeline is a planned multi-stage verifier.
type Pipeline struct {
	cfg    Config
	plan   *schedule.Schedule
	byName map[string]verify.Method
	// sem bounds in-flight claim attempts across all documents when
	// cfg.Workers > 1; nil means fully sequential passes.
	sem chan struct{}
}

// ErrUnknownMethod indicates the schedule references a method not in the
// config.
var ErrUnknownMethod = errors.New("core: schedule references unknown method")

// New plans the verification schedule (Algorithm 1 line 5) and returns the
// pipeline.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Methods) == 0 {
		return nil, fmt.Errorf("core: no verification methods configured")
	}
	var plan *schedule.Schedule
	var err error
	if cfg.CostBudget > 0 {
		plan, err = schedule.PlanBudget(cfg.Stats, MaxTries, cfg.CostBudget)
	} else {
		plan, err = schedule.Plan(cfg.Stats, MaxTries, cfg.AccuracyTarget)
	}
	if err != nil {
		return nil, fmt.Errorf("core: planning schedule: %w", err)
	}
	return newWithSchedule(cfg, plan)
}

// NewWithSchedule builds a pipeline around a fixed schedule, used by the
// distribution-shift experiment (Figure 7) to apply one document's schedule
// to another domain, and by single-stage baselines.
func NewWithSchedule(cfg Config, plan *schedule.Schedule) (*Pipeline, error) {
	if len(cfg.Methods) == 0 {
		return nil, fmt.Errorf("core: no verification methods configured")
	}
	return newWithSchedule(cfg, plan)
}

func newWithSchedule(cfg Config, plan *schedule.Schedule) (*Pipeline, error) {
	p := &Pipeline{
		cfg:    cfg,
		plan:   plan,
		byName: make(map[string]verify.Method, len(cfg.Methods)),
	}
	if cfg.Workers > 1 {
		p.sem = make(chan struct{}, cfg.Workers)
	}
	for _, m := range cfg.Methods {
		p.byName[m.Name()] = m
	}
	for _, st := range plan.Steps {
		if st.Tries > 0 {
			if _, ok := p.byName[st.Method]; !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, st.Method)
			}
		}
	}
	return p, nil
}

// Schedule returns the planned verification schedule.
func (p *Pipeline) Schedule() *schedule.Schedule { return p.plan }

// VerifyDocuments implements Algorithm 1 over a document collection. Claims
// are annotated in place.
func (p *Pipeline) VerifyDocuments(docs []*claim.Document) {
	for _, d := range docs {
		p.VerifyDocument(d)
	}
}

// VerifyDocumentsParallel verifies documents concurrently with the given
// number of workers. Documents are independent in Algorithm 1 (schedules,
// few-shot samples, and databases are all per-document) and every claim
// attempt owns a seed split from its identity, so parallelism — across
// documents here and across claims inside VerifyDocument — changes
// throughput but never results; the underlying ledger is safe for
// concurrent metering. workers < 2 falls back to the sequential path.
func (p *Pipeline) VerifyDocumentsParallel(docs []*claim.Document, workers int) {
	if workers < 2 || len(docs) < 2 {
		p.VerifyDocuments(docs)
		return
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	work := make(chan *claim.Document)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				p.VerifyDocument(d)
			}
		}()
	}
	for _, d := range docs {
		work <- d
	}
	close(work)
	wg.Wait()
}

// VerifyDocument runs the scheduled stages over one document's claims.
//
// Within each (step, try) the few-shot harvest keeps Algorithm 1's
// sequential semantics — claims are attempted in order until the first
// success, which seeds the later claims of that step — while the subsequent
// with-sample sweep fans out over the worker pool. Because every attempt's
// randomness is split from (document, claim index, method, try), the fan-out
// reorders only execution, never outcomes: any Workers value produces the
// same Results, byte for byte.
func (p *Pipeline) VerifyDocument(d *claim.Document) {
	// Claim indices are positions in the document, stable across passes, so
	// an attempt's seed does not depend on which claims earlier steps
	// already verified.
	index := make(map[*claim.Claim]int, len(d.Claims))
	// What every attempt on a claim reads off it — masking, value type,
	// parsed value — is derived here, once per claim for this run, and
	// dropped with the run: nothing is kept on the caller's claims.
	inputs := make([]claim.Inputs, len(d.Claims))
	for i, c := range d.Claims {
		index[c] = i
		inputs[i] = c.Inputs()
	}
	remaining := append([]*claim.Claim{}, d.Claims...)
	for _, step := range p.plan.Steps {
		if step.Tries == 0 || len(remaining) == 0 {
			continue
		}
		m := p.byName[step.Method]
		// Samples are document- and approach-specific (Section 4): reset
		// per step, harvested from the step's first success.
		var sample *verify.Sample
		for try := 0; try < step.Tries && len(remaining) > 0; try++ {
			temp := DefaultRetryTemperature(step.Method, try)
			// invFor binds an attempt's full identity: the seed split from
			// (doc, claim index, method, try) and the matching trace key, so
			// the span stream lines up one-to-one with seeded invocations.
			invFor := func(c *claim.Claim) verify.Invocation {
				return verify.Invocation{
					Temperature: temp,
					Seed: llm.SplitSeed(p.cfg.Seed,
						d.ID, strconv.Itoa(index[c]), step.Method, strconv.Itoa(try)),
					Attempt: trace.Key{Doc: d.ID, Claim: index[c], Method: step.Method, Try: try},
					Tracer:  p.cfg.Tracer,
					Inputs:  &inputs[index[c]],
				}
			}
			if sample == nil {
				s := p.harvestPass(m, remaining, d.Data, invFor)
				remaining = removeAll(remaining, s)
				if len(s) > 0 {
					sample = verify.MakeSample(s[0], &inputs[index[s[0]]])
				}
			}
			if sample != nil && len(remaining) > 0 {
				s := p.samplePass(m, remaining, sample, d.Data, invFor)
				remaining = removeAll(remaining, s)
			}
		}
	}
	// Section 4's defaults for claims no approach could verify: if some
	// attempted translation was executable but never matched the claimed
	// value, the claim is marked incorrect; claims for which no executable
	// query was ever generated are assumed unverifiable from the data and
	// marked correct.
	for _, c := range remaining {
		c.Result.Verified = false
		c.Result.Correct = !c.Result.Executable
		if c.Result.Method == "" {
			// A recorded transport-failure class means the provider, not the
			// translation, is why the claim went unverified: label it
			// "failed" so operators can separate degraded claims from
			// genuinely unverifiable ones.
			if c.Result.Failure != "" {
				c.Result.Method = claim.MethodFailed
			} else {
				c.Result.Method = claim.MethodUnverified
			}
		}
	}
}

// harvestPass implements Algorithm 2's no-sample mode: attempt claims in
// order and return the first success, which the caller harvests as the
// step's few-shot sample. The scan is inherently sequential (later claims
// are only attempted when earlier ones failed), so it runs on the calling
// goroutine; each attempt still holds a worker slot to keep the global
// attempt bound when many documents are in flight.
func (p *Pipeline) harvestPass(m verify.Method, claims []*claim.Claim, db *sqldb.Database, invFor func(*claim.Claim) verify.Invocation) []*claim.Claim {
	for _, c := range claims {
		p.acquire()
		ok := verify.AttemptWith(m, c, db, invFor(c))
		p.release()
		if ok {
			return []*claim.Claim{c}
		}
	}
	return nil
}

// samplePass implements Algorithm 2's with-sample mode: verify every claim
// and return all successes. Attempts are mutually independent — each owns
// its claim, its seed, and a read-only view of the database — so they fan
// out over the worker pool; successes are collected in claim order, keeping
// the result identical to a sequential sweep.
func (p *Pipeline) samplePass(m verify.Method, claims []*claim.Claim, sample *verify.Sample, db *sqldb.Database, invFor func(*claim.Claim) verify.Invocation) []*claim.Claim {
	attempt := func(c *claim.Claim) bool {
		inv := invFor(c)
		inv.Sample = sample
		return verify.AttemptWith(m, c, db, inv)
	}
	var verified []*claim.Claim
	if p.sem == nil || len(claims) < 2 {
		for _, c := range claims {
			if attempt(c) {
				verified = append(verified, c)
			}
		}
		return verified
	}
	ok := make([]bool, len(claims))
	var wg sync.WaitGroup
	for i, c := range claims {
		wg.Add(1)
		go func(i int, c *claim.Claim) {
			defer wg.Done()
			p.acquire()
			defer p.release()
			ok[i] = attempt(c)
		}(i, c)
	}
	wg.Wait()
	for i, c := range claims {
		if ok[i] {
			verified = append(verified, c)
		}
	}
	return verified
}

// acquire takes a worker slot when the pool is bounded; release returns it.
func (p *Pipeline) acquire() {
	if p.sem != nil {
		p.sem <- struct{}{}
	}
}

func (p *Pipeline) release() {
	if p.sem != nil {
		<-p.sem
	}
}

func removeAll(claims, drop []*claim.Claim) []*claim.Claim {
	if len(drop) == 0 {
		return claims
	}
	dropSet := make(map[*claim.Claim]bool, len(drop))
	for _, c := range drop {
		dropSet[c] = true
	}
	out := claims[:0]
	for _, c := range claims {
		if !dropSet[c] {
			out = append(out, c)
		}
	}
	return out
}

// SingleStageSchedule builds a schedule applying one method with the given
// tries — the single-stage baselines of Figure 5.
func SingleStageSchedule(method string, tries int) *schedule.Schedule {
	return &schedule.Schedule{Steps: []schedule.Step{{Method: method, Tries: tries}}}
}
