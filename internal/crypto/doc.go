// Package crypto implements the four encryption techniques of the paper's
// experimental setup (Section 7): randomized symmetric encryption (AES-CTR
// with a random nonce), deterministic symmetric encryption (AES-CTR with a
// synthetic nonce derived by HMAC, enabling equality over ciphertexts), a
// Paillier cryptosystem (additive homomorphism for sum/avg aggregation over
// ciphertexts), and an order-preserving encryption scheme (range conditions
// over ciphertexts). The package also derives per-cluster key material for
// the query-plan keys of Definition 6.1.
//
// Every scheme exposes batch entry points (EncryptBatch/DecryptBatch, plus
// packed-arena EncryptArena variants for the symmetric schemes and, for
// Paillier, fixed-base randomizer tables over p² and q² joined by CRT) that
// amortize cipher setup across a whole column of cells; the execution
// engine's columnar encrypt/decrypt operators call them with one batched
// call per column (or per scheme-and-key group). Deterministic and OPE
// batch outputs are bit-identical to the per-value calls; randomized and
// Paillier outputs decrypt to the same plaintexts. A Paillier key builds
// its tables only if it holds the factorization n = p·q; a randomizer from
// them equals the one a single table over n² gives for the same base and
// exponent.
//
// See docs/ARCHITECTURE.md at the repository root for how the crypto batch
// path plugs into the columnar pipeline.
package crypto
