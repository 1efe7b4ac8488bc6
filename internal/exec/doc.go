// Package exec is the in-memory relational execution engine for (extended)
// query plans. It evaluates every operator of the algebra, including the
// encryption and decryption operators and computation over encrypted
// values: equality and grouping over deterministic ciphertexts, range
// conditions and min/max over OPE ciphertexts, and sum/avg over Paillier
// ciphertexts via additive homomorphism — the CryptDB/SEEED-style substrate
// the paper's model assumes (Section 1).
//
// Two evaluators share the operator semantics:
//
//   - The columnar batch pipeline (the default): Executor.Build compiles a
//     plan into Open/Next/Close operators exchanging Batch values — N rows
//     stored as typed column vectors (int64, float64, string, ciphertext
//     bytes, plus a generic Value fallback and a null bitmap). Scans serve
//     zero-copy windows of each table's cached columnar store
//     (Table.Columns, built once per relation), filters narrow selection
//     vectors over the vectors, projections forward column slices without
//     copying, aggregation accumulates from the typed vectors, and the
//     encrypt/decrypt operators hand whole columns to the batched crypto
//     engine. Row-oriented callers convert only at the boundary (Drain,
//     Batch.Rows). A pipeline runs on the goroutine that drains it; the
//     distributed runtime gives every fragment its own, and only the
//     encrypt/decrypt operators fan a large batch out to the intra-batch
//     crypto pool (Executor.CryptoWorkers).
//
//   - The row-at-a-time evaluator (exec.go and eval.go, selected by an
//     Executor field): every operator materializes its full result,
//     resolves references per row and encrypts or decrypts value by value.
//     It is the one reference the equivalence tests check the pipeline,
//     the batched crypto path and the distributed runtime against — for
//     the latter by evaluating a whole extended plan on one trusted
//     executor — never a hot path. It bypasses the ciphertext column cache
//     and ignores Trace and Ctx.
//
// See docs/ARCHITECTURE.md at the repository root for the batch contract,
// the operator inventory, and a worked end-to-end query trace.
package exec
