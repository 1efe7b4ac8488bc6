package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// ctxErr is the per-batch cancellation probe of the batch pipeline. A nil
// context — the default for every executor that was never handed one —
// costs a single pointer comparison, so the happy path stays untouched.
// With a context attached, the non-blocking select costs a few nanoseconds
// per batch boundary, which bounds cancellation latency to one batch of
// work without taxing per-row loops. The returned error is the context's
// cause, so callers can classify Canceled vs DeadlineExceeded upstream.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// PanicError is a panic caught at an execution boundary (a fragment
// goroutine, or the engine's last-resort guard around a query) and converted
// into an ordinary query error: the process survives, the run aborts
// cleanly, and the caller learns where the panic happened and what was
// thrown. The captured stack is the one of the panicking goroutine, taken
// inside its recover.
type PanicError struct {
	// Where names the boundary that caught the panic, e.g. the fragment or
	// the engine ("fragment σ[...]", "engine query").
	Where string
	// Val is the value the code panicked with.
	Val any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in %s: %v", p.Where, p.Val)
}

// NewPanicError converts a recovered panic value into a *PanicError,
// capturing the panicking goroutine's stack. Call it from inside the
// deferred recover (recover itself must be called directly by the deferred
// function, so it cannot live here).
func NewPanicError(where string, val any) *PanicError {
	return &PanicError{Where: where, Val: val, Stack: debug.Stack()}
}

// TrackedSpillFactory wraps a SpillFactory and remembers every run it has
// created that was not yet released. Ordinary operator teardown releases
// runs explicitly; a panic or cancellation can abandon runs mid-build, and
// Sweep is the backstop that deletes them once the run's goroutines have
// all stopped — the invariant "no orphan spill files on any abort path"
// rests on it. Safe for concurrent use: fragments of one distributed run
// share a single tracked factory.
type TrackedSpillFactory struct {
	inner SpillFactory
	mu    sync.Mutex
	live  map[*trackedRun]struct{}
}

// NewTrackedSpillFactory wraps fac (nil returns nil, preserving the
// "unbudgeted run" convention).
func NewTrackedSpillFactory(fac SpillFactory) *TrackedSpillFactory {
	if fac == nil {
		return nil
	}
	return &TrackedSpillFactory{inner: fac, live: make(map[*trackedRun]struct{})}
}

// NewRun creates a run on the wrapped factory and registers it for Sweep.
func (f *TrackedSpillFactory) NewRun() (SpillRun, error) {
	r, err := f.inner.NewRun()
	if err != nil {
		return nil, err
	}
	tr := &trackedRun{SpillRun: r, fac: f}
	f.mu.Lock()
	f.live[tr] = struct{}{}
	f.mu.Unlock()
	return tr, nil
}

// Sweep releases every still-live run. Call it only after every goroutine
// of the run has stopped (post wg.Wait): releasing a run another goroutine
// is still appending to would corrupt nothing on disk — Release is an
// unlink — but would surface confusing write errors instead of the real
// abort cause.
func (f *TrackedSpillFactory) Sweep() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	runs := make([]*trackedRun, 0, len(f.live))
	for tr := range f.live {
		runs = append(runs, tr)
	}
	f.mu.Unlock()
	for _, tr := range runs {
		tr.Release()
	}
	return len(runs)
}

// trackedRun forwards to the wrapped run and unregisters itself on Release
// (idempotent, like the underlying Release contract).
type trackedRun struct {
	SpillRun
	fac *TrackedSpillFactory
}

func (t *trackedRun) Release() error {
	t.fac.mu.Lock()
	delete(t.fac.live, t)
	t.fac.mu.Unlock()
	return t.SpillRun.Release()
}
