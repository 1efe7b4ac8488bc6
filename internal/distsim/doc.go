// Package distsim simulates the distributed execution of an extended,
// assigned query plan across subjects: each subject runs its operations on
// its own executor (holding only its tables and the keys distributed to it
// per Definition 6.1), sub-results travel over accounted network links, and
// providers operating on encrypted data receive Paillier public parts (for
// the keys of homomorphically aggregated attributes only) and pre-encrypted
// predicate constants — never decryption keys. The simulation
// verifies end to end that the authorization-driven extension computes the
// same answers as a trusted centralized execution.
//
// One runtime executes a prepared Network, with one reference beside it:
//
//   - ExecuteStreamCtx: one worker goroutine per fragment, exchanging columnar
//     exec.Batch values over bounded channels; transfer latency overlaps
//     upstream computation batch by batch, and the ledger accounts each
//     edge's bytes per shipped batch (batchBytes walks the column vectors).
//     ExecuteParallel is ExecuteStreamCtx with the root collected back into a
//     table, for callers that want the whole relation.
//   - Materializing (a Network field, not an entry point): ExecuteParallel
//     ships every fragment's complete sub-result in one piece over the
//     row-at-a-time interior — the reference the equivalence tests compare
//     the streaming runtime against.
//
// See docs/ARCHITECTURE.md at the repository root for how fragments,
// channel exchanges, and the transfer ledger fit into the full pipeline.
package distsim
