package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/claim"
	"repro/internal/fee"
	"repro/internal/trace"
)

// job is one admitted request waiting for a micro-batch slot: the
// request's documents, its context (deadline + client disconnect), and its
// batch outcome.
type job struct {
	docs []*claim.Document
	ctx  context.Context
	// res is the batch outcome, written once by the batch loop before it
	// closes done; closing never blocks on a handler that already gave up.
	res  jobResult
	done chan struct{}
	// settled is set once res is, before done closes (finish).
	settled atomic.Bool
}

// jobResult is the batch outcome delivered to one job's handler. The job's
// documents are annotated in place by the backend; the handler reads them
// only after done closes (the close orders the memory accesses).
type jobResult struct {
	stats BatchStats
	// batch numbers the micro-batch run the job rode in (1-based; zero on
	// error results). Stats cover the whole batch, so a consumer holding
	// several jobs — the stream handler — sums fee totals once per distinct
	// batch number instead of once per job.
	batch int64
	err   error
}

func newJob(ctx context.Context, docs []*claim.Document) *job {
	return &job{docs: docs, ctx: ctx, done: make(chan struct{})}
}

// finish delivers one outcome to jobs, the live jobs of one batch. Every
// job is settled before the first done channel closes, so a handler woken by
// one of them finds the others finished too: a stream writes one batch's
// verdicts together.
func finish(res jobResult, jobs ...*job) {
	for _, j := range jobs {
		j.res = res
		j.settled.Store(true)
	}
	for _, j := range jobs {
		close(j.done)
	}
}

// finished reports whether the job's outcome is delivered or being
// delivered: awaiting it does not wait for a batch.
func (j *job) finished() bool { return j.settled.Load() }

// batchLoop is the single goroutine that converts the admitted-request
// queue into pipeline runs. One loop — not one per batch — so runs are
// serialized exactly as the run-scoped ledger and tracer require, and so a
// closed queue drains in admission order before the loop exits.
func (s *Server) batchLoop() {
	defer close(s.loopDone)
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		batch := []*job{j}
		// Linger for BatchWait to coalesce concurrent arrivals, but never
		// beyond MaxBatch documents. A closed queue ends the linger early;
		// buffered jobs still arrive before ok turns false, so drain order
		// is preserved.
		if s.cfg.BatchWait > 0 {
			timer := time.NewTimer(s.cfg.BatchWait)
		gather:
			for s.batchDocs(batch) < s.cfg.MaxBatch {
				select {
				case nj, ok := <-s.queue:
					if !ok {
						break gather
					}
					batch = append(batch, nj)
				case <-timer.C:
					break gather
				}
			}
			timer.Stop()
		} else {
			// Immediate mode: take only what is already queued.
			for s.batchDocs(batch) < s.cfg.MaxBatch {
				select {
				case nj, ok := <-s.queue:
					if !ok {
						goto run
					}
					batch = append(batch, nj)
				default:
					goto run
				}
			}
		}
	run:
		s.runBatch(batch)
	}
}

// batchDocs counts the documents gathered so far; the batch size limit is
// in documents (the pipeline's unit of work), not requests.
func (s *Server) batchDocs(batch []*job) int {
	n := 0
	for _, j := range batch {
		n += len(j.docs)
	}
	return n
}

// runBatch verifies one micro-batch: jobs whose context already expired are
// dropped (their claims are never attempted, so nothing is billed for
// them), the rest share a single backend run, and every job is answered
// with the batch totals.
func (s *Server) runBatch(batch []*job) {
	live := batch[:0]
	var docs []*claim.Document
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			finish(jobResult{err: err}, j)
			continue
		}
		live = append(live, j)
		if docs == nil {
			// A batch of one job runs on the job's own slice; the capacity
			// cap makes a second job's append copy it.
			docs = j.docs[:len(j.docs):len(j.docs)]
		} else {
			docs = append(docs, j.docs...)
		}
	}
	if len(docs) == 0 {
		return
	}
	stats, err := s.cfg.Backend.VerifyDocuments(docs)
	bs := BatchStats{Docs: len(docs), Claims: stats.Claims, Dollars: fee.FromDollars(stats.Dollars), Calls: stats.Calls}
	if err == nil {
		s.met.recordBatch(bs)
		s.harvestTrace()
	}
	s.batchSeq++ // only written here, on the single batch-loop goroutine
	finish(jobResult{stats: bs, batch: s.batchSeq, err: err}, live...)
}

// harvestTrace folds the just-finished run's spans into the cumulative
// per-method metrics. The backend resets the tracer at each run start, so
// the spans visible here belong to exactly one micro-batch.
func (s *Server) harvestTrace() {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	for _, sp := range s.cfg.Tracer.Spans() {
		if sp.Kind != trace.KindAttempt {
			continue
		}
		s.met.recordAttempt(sp)
	}
}
