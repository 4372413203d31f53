package serve

import (
	"context"
	"net/http"

	"repro/internal/claim"
)

// apiError carries an HTTP status plus the error-envelope fields from the
// admission layer back to the handler that must render it.
type apiError struct {
	status     int
	code, msg  string
	retryAfter bool
}

// admit applies admission control and enqueues a job for the batch loop:
//
//   - a draining server rejects with 503/draining (the load balancer's cue
//     to fail over; nothing is lost — the request was never admitted);
//   - a full queue sheds with 429/overloaded and the configured Retry-After
//     hint, bounding queued memory and tail latency deterministically
//     instead of letting the backlog grow without limit.
//
// Admission is the only gate: once admit returns a job, the batch loop
// guarantees a result (or the request's own context expiring).
func (s *Server) admit(ctx context.Context, docs []*claim.Document) (*job, *apiError) {
	j := newJob(ctx, docs)
	// The read lock spans the draining check and the send so Shutdown's
	// close(queue) cannot interleave; the send is non-blocking, so the lock
	// is held only momentarily and a full queue becomes shed, not blocking.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		s.met.inc(&s.met.rejectedDraining)
		return nil, &apiError{status: http.StatusServiceUnavailable, code: CodeDraining,
			msg: "server is draining; retry against another replica"}
	}
	select {
	case s.queue <- j:
		return j, nil
	default:
		s.met.inc(&s.met.shedOverload)
		return nil, &apiError{status: http.StatusTooManyRequests, code: CodeOverloaded,
			msg: "verification queue is full", retryAfter: true}
	}
}

// await blocks until the job's batch completes or the request context
// expires, mapping each outcome to its HTTP shape.
func (s *Server) await(ctx context.Context, j *job) (jobResult, *apiError) {
	select {
	case <-j.done:
		res := j.res
		if res.err != nil {
			if res.err == context.DeadlineExceeded || res.err == context.Canceled {
				// The deadline expired while the job was still queued: the
				// batch loop dropped it before attempting any claim.
				s.met.inc(&s.met.deadlineExpired)
				return res, &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
					msg: "request deadline expired before its batch started"}
			}
			s.met.inc(&s.met.internalErrors)
			return res, &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: res.err.Error()}
		}
		return res, nil
	case <-ctx.Done():
		// The batch is running (or about to): the claims will be verified
		// and billed, but this caller is no longer waiting for them.
		s.met.inc(&s.met.deadlineExpired)
		return jobResult{}, &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
			msg: "request deadline expired while its batch was in flight"}
	}
}
