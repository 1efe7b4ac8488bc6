package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"mpq/internal/exec"
)

// Sentinel errors of the admission gate. Callers classify with errors.Is —
// mpqd maps ErrOverloaded to 429 and ErrQueueTimeout to 503.
var (
	// ErrOverloaded reports that the in-flight cap and the wait queue are
	// both full: the query was rejected immediately, no work was done.
	ErrOverloaded = errors.New("engine: overloaded (concurrency cap and wait queue full)")
	// ErrQueueTimeout reports that the query waited QueueWait in the
	// admission queue without an execution slot freeing up.
	ErrQueueTimeout = errors.New("engine: timed out waiting for an execution slot")
)

// DefaultQueueWait bounds the admission-queue wait when Config.QueueWait is
// zero but a queue is configured.
const DefaultQueueWait = time.Second

// Error kinds returned by ClassifyErr, for transport status mapping and the
// failure-mode metrics.
const (
	KindOverloaded   = "overloaded"    // ErrOverloaded (HTTP 429)
	KindQueueTimeout = "queue_timeout" // ErrQueueTimeout (HTTP 503)
	KindTimeout      = "timeout"       // deadline exceeded (HTTP 504)
	KindCanceled     = "canceled"      // caller cancelled (HTTP 499)
	KindPanic        = "panic"         // recovered execution panic (HTTP 500)
	KindMemoryBudget = "memory_budget" // exec.ErrMemoryBudget (HTTP 503)
	KindError        = "error"         // any other failure (HTTP 4xx/5xx)
)

// ClassifyErr buckets a query error into one of the Kind constants; it is
// how mpqd picks a status code without string-matching errors.
func ClassifyErr(err error) string {
	var pe *exec.PanicError
	switch {
	case errors.Is(err, ErrOverloaded):
		return KindOverloaded
	case errors.Is(err, ErrQueueTimeout):
		return KindQueueTimeout
	case errors.As(err, &pe):
		return KindPanic
	case errors.Is(err, exec.ErrMemoryBudget):
		return KindMemoryBudget
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindCanceled
	default:
		return KindError
	}
}

// admission is the engine's in-flight gate: a semaphore of MaxConcurrent
// slots plus a bounded wait queue. Queries beyond the cap wait up to `wait`
// for a slot; queries beyond cap+queue are rejected immediately, so an
// overload sheds load instead of stacking goroutines without bound.
type admission struct {
	slots    chan struct{} // buffered semaphore; len() = in-flight queries
	maxQueue int64
	wait     time.Duration
	queued   atomic.Int64
}

func newAdmission(maxConcurrent, maxQueue int, wait time.Duration) *admission {
	if maxConcurrent <= 0 {
		return nil
	}
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	return &admission{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		wait:     wait,
	}
}

// acquireSlot admits the query or returns why it cannot run: ErrOverloaded
// (queue full), ErrQueueTimeout (waited too long), or the context's cause
// (caller gave up while queued). A nil gate admits everything.
func (e *Engine) acquireSlot(ctx context.Context) error {
	a := e.adm
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		e.met.admitted.Inc()
		return nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		e.met.rejected.Inc()
		return ErrOverloaded
	}
	defer a.queued.Add(-1)
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	select {
	case a.slots <- struct{}{}:
		e.met.admitted.Inc()
		return nil
	case <-timer.C:
		e.met.queueTimeouts.Inc()
		return ErrQueueTimeout
	case <-cancelled:
		e.met.admCanceled.Inc()
		return context.Cause(ctx)
	}
}

// releaseSlot returns an admitted query's slot.
func (e *Engine) releaseSlot() {
	if e.adm != nil {
		<-e.adm.slots
	}
}

// runContext applies the engine's default deadline: a caller context without
// a deadline (or no context at all) gets Config.QueryTimeout; a caller that
// set its own deadline — mpqd's ?timeout= — keeps it. The returned cancel is
// nil when no deadline was added.
func (e *Engine) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.cfg.QueryTimeout <= 0 {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	} else if _, has := ctx.Deadline(); has {
		return ctx, nil
	}
	return context.WithTimeout(ctx, e.cfg.QueryTimeout)
}

// countFailure increments the error counter and the failure-mode counter the
// error classifies into (timeouts, cancellations, recovered panics, memory
// refusals).
func (e *Engine) countFailure(err error) {
	e.met.errors.Inc()
	switch ClassifyErr(err) {
	case KindTimeout:
		e.met.timeouts.Inc()
	case KindCanceled:
		e.met.cancels.Inc()
	case KindPanic:
		e.met.panics.Inc()
	case KindMemoryBudget:
		e.met.memRefusals.Inc()
	}
}
