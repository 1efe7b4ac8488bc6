package exec

import (
	"context"
	"fmt"
	"runtime/debug"
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
