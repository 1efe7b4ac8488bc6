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
// One runtime executes a prepared Network: ExecuteStreamCtx runs one worker
// goroutine per fragment of dispatch.Partition — the Figure 8 requests, so
// the sub-queries the user signs are the ones that run — exchanging
// columnar exec.Batch values over bounded channels; transfer latency
// overlaps upstream computation batch by batch, and the ledger accounts
// each edge's bytes per shipped batch (batchBytes walks the column
// vectors). ExecuteParallel partitions the plan and runs ExecuteStreamCtx
// with the root collected back into a table, for callers that want the
// whole relation. The tests check it against two references: internal/sqlref, a
// SQL interpreter sharing no code with the engine, for the answer, and the
// extended plan run by the batch pipeline on a trusted executor holding
// every table, every key and the plan's constants, whose subtree under each
// cross-subject edge gives that edge's rows. The two deprecated Network fields that once
// selected a second runtime and a per-value crypto path are read by
// nothing; they remain only because bench/layers.go assigns them, and go
// when that file does (ROADMAP item 3(a)).
//
// See docs/ARCHITECTURE.md at the repository root for how fragments,
// channel exchanges, and the transfer ledger fit into the full pipeline.
package distsim
