// Package pipeline is the exchange layer over the batch execution engine:
// it adapts channels into pipeline sources so plan fragments on different
// subjects can exchange row batches instead of whole relations.
//
// The package deliberately holds no evaluation logic of its own: operator
// semantics, and the pump that drives a compiled stream (exec.PumpContext),
// live in internal/exec; pipeline owns how batches are exchanged.
package pipeline

import (
	"mpq/internal/algebra"
	"mpq/internal/exec"
)

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
