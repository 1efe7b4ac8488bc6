package crypto

import "sync/atomic"

// Package-level operation counters. They are process-global (every key of a
// scheme shares one counter) because what observability needs is the
// aggregate crypto bill of the process, not per-key attribution. All
// counters are monotonic; the engine bridges them into its metrics registry
// via CounterFunc collectors, so they cost one atomic add per operation and
// nothing at scrape time beyond a load.
var cryptoStats struct {
	detEncrypts atomic.Uint64 // deterministic values encrypted
	detDecrypts atomic.Uint64
	rndEncrypts atomic.Uint64 // randomized values encrypted
	rndDecrypts atomic.Uint64
	opeEncrypts atomic.Uint64 // OPE values encrypted
	opeDecrypts atomic.Uint64
	pheEncrypts atomic.Uint64 // Paillier values encrypted
	pheDecrypts atomic.Uint64

	encryptBatches atomic.Uint64 // batch/arena encrypt calls, all schemes
	decryptBatches atomic.Uint64 // batch decrypt calls, all schemes

	paillierKeygens atomic.Uint64 // Paillier key pairs generated
}

// Stats is a point-in-time snapshot of the package counters.
type Stats struct {
	DetEncrypts, DetDecrypts uint64 // deterministic scheme values
	RndEncrypts, RndDecrypts uint64 // randomized scheme values
	OPEEncrypts, OPEDecrypts uint64 // order-preserving scheme values
	PheEncrypts, PheDecrypts uint64 // Paillier values

	EncryptBatches, DecryptBatches uint64 // batch/arena calls across schemes

	PaillierKeygens uint64 // Paillier key pairs generated

	// PaillierPoolHits is always 0: the randomizer pool it counted is gone.
	// The field stays for readers compiled against it.
	PaillierPoolHits uint64
}

// ReadStats snapshots the process-global crypto counters.
func ReadStats() Stats {
	return Stats{
		DetEncrypts:     cryptoStats.detEncrypts.Load(),
		DetDecrypts:     cryptoStats.detDecrypts.Load(),
		RndEncrypts:     cryptoStats.rndEncrypts.Load(),
		RndDecrypts:     cryptoStats.rndDecrypts.Load(),
		OPEEncrypts:     cryptoStats.opeEncrypts.Load(),
		OPEDecrypts:     cryptoStats.opeDecrypts.Load(),
		PheEncrypts:     cryptoStats.pheEncrypts.Load(),
		PheDecrypts:     cryptoStats.pheDecrypts.Load(),
		EncryptBatches:  cryptoStats.encryptBatches.Load(),
		DecryptBatches:  cryptoStats.decryptBatches.Load(),
		PaillierKeygens: cryptoStats.paillierKeygens.Load(),
	}
}
