// Package pipeline is the streaming layer over the batch execution engine:
// it drives compiled Open/Next/Close operator streams (exec.Build), adapts
// channels into pipeline sources so plan fragments on different subjects
// can exchange row batches instead of whole relations.
//
// The package deliberately holds no evaluation logic of its own: operator
// semantics live in internal/exec; pipeline owns how compiled streams are
// driven and exchanged.
package pipeline

import (
	"context"

	"mpq/internal/algebra"
	"mpq/internal/exec"
)

// PumpContext opens op, forwards every batch to emit, and closes it. It is
// the producer side of a batch exchange: fragment workers pump their
// compiled sub-plan into the channel feeding the consuming subject (an emit
// error aborts the pump and is returned). Between batches it checks ctx
// (nil = never cancelled), so a cancelled or deadline-expired run stops
// pumping within one batch even when the operator tree contains no
// context-aware leaf (pure exchange-fed fragments). The operator is closed
// on every exit path.
func PumpContext(ctx context.Context, op exec.Operator, emit func(*exec.Batch) error) error {
	if err := op.Open(); err != nil {
		op.Close()
		return err
	}
	// A panic unwinding out of Next or emit (an injected fault, a buggy
	// UDF) must still tear the operator tree down before the fragment
	// boundary reports it: spill runs hang off Close, and skipping it leaks
	// their files.
	closed := false
	closeOp := func() error { closed = true; return op.Close() }
	defer func() {
		if !closed {
			op.Close()
		}
	}()
	for {
		if ctx != nil {
			select {
			case <-ctx.Done():
				closeOp()
				return context.Cause(ctx)
			default:
			}
		}
		b, err := op.Next()
		if err != nil {
			closeOp()
			return err
		}
		if b == nil {
			break
		}
		if err := emit(b); err != nil {
			closeOp()
			return err
		}
	}
	return closeOp()
}

// Msg is one hop of a batch exchange: a batch, or the producer's terminal
// error. The producer closes the channel after the last message.
type Msg struct {
	Batch *exec.Batch
	Err   error
}

// Source adapts a channel of exchange messages into a pipeline operator, so
// a compiled fragment consumes batches arriving from another subject
// exactly like rows scanned from a local table. The optional done channel
// aborts blocked reads when another fragment of the run fails.
type Source struct {
	schema []algebra.Attr
	ch     <-chan Msg
	done   <-chan struct{}
	err    error
}

// NewSource returns a source producing the given schema from ch.
func NewSource(schema []algebra.Attr, ch <-chan Msg, done <-chan struct{}) *Source {
	return &Source{schema: schema, ch: ch, done: done}
}

// Schema returns the schema of the exchanged rows.
func (s *Source) Schema() []algebra.Attr { return s.schema }

// Open is a no-op: the producing worker drives the channel.
func (s *Source) Open() error { return nil }

// Close is a no-op: abandoned producers unblock via the done channel.
func (s *Source) Close() error { return nil }

// Next returns the next batch from the exchange.
func (s *Source) Next() (*exec.Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	select {
	case m, ok := <-s.ch:
		if !ok {
			return nil, nil
		}
		if m.Err != nil {
			s.err = m.Err
			return nil, m.Err
		}
		return m.Batch, nil
	case <-s.done:
		s.err = errAborted
		return nil, s.err
	}
}

// errAborted reports that the run was torn down because a sibling fragment
// failed; the fragment's own error carries the cause.
var errAborted = errStr("pipeline: execution aborted")

type errStr string

func (e errStr) Error() string { return string(e) }
