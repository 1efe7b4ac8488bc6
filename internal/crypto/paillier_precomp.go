package crypto

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// Paillier encryption spends almost all of its time computing the
// randomizer r^n mod n² (with g = n+1, the message part g^m is a single
// multiplication). Two precomputations cut that cost:
//
//   - A fixed-base windowed exponentiation table. At first batch use (or an
//     explicit Precompute call) the key picks a random unit h, computes
//     hn = h^n mod n², and tabulates hn^(j·2^(i·w)) for every window digit.
//     A randomizer is then hn^ρ for a fresh random ρ — one table
//     multiplication per window digit, no squarings. Any such value is a
//     valid Paillier randomizer ((h^ρ)^n), so ciphertexts decrypt exactly
//     as before; only the (still computationally hidden) randomizer
//     distribution differs, which the decrypt-equivalence oracle accepts.
//
//   - A randomizer pool. Randomizers are message-independent, so they can
//     be precomputed ahead of the values they will encrypt — synchronously
//     (PrecomputeRandomizers) or in the background (BackgroundRandomizers)
//     — and popped in O(1) at encryption time.
//
// Per-value Encrypt keeps the textbook path until a precomputation is
// requested; EncryptBatch precomputes automatically for batches worth the
// table construction.

// fixedBaseWindow is the window width in bits of the precomputed tables: a
// digits×(2^w-1) table turns an e-bit exponentiation into ceil(e/w)
// multiplications.
const fixedBaseWindow = 5

// paillierPoolCap bounds the randomizer pool of one key.
const paillierPoolCap = 4096

// paillierBatchPrecompute is the batch size from which EncryptBatch builds
// the fixed-base table on first use.
const paillierBatchPrecompute = 16

// fixedBase is a windowed fixed-base exponentiation table: table[i][j-1]
// holds base^(j·2^(i·w)) mod m, so x = base^e is the product of one table
// entry per non-zero window digit of e.
type fixedBase struct {
	window  uint
	m       *big.Int
	expBits int
	table   [][]*big.Int
}

// newFixedBase tabulates base^(j·2^(i·w)) mod m for exponents up to expBits
// bits.
func newFixedBase(base, m *big.Int, expBits int, window uint) *fixedBase {
	digits := (expBits + int(window) - 1) / int(window)
	if digits < 1 {
		digits = 1
	}
	size := (1 << window) - 1
	fb := &fixedBase{window: window, m: m, expBits: digits * int(window), table: make([][]*big.Int, digits)}
	cur := new(big.Int).Set(base)
	for i := 0; i < digits; i++ {
		row := make([]*big.Int, size)
		row[0] = new(big.Int).Set(cur)
		for j := 1; j < size; j++ {
			row[j] = new(big.Int).Mul(row[j-1], cur)
			row[j].Mod(row[j], m)
		}
		fb.table[i] = row
		// cur ← base^(2^((i+1)·w)) = row[last] · cur.
		cur.Mul(row[size-1], cur)
		cur.Mod(cur, m)
	}
	return fb
}

// Exp computes base^e mod m for 0 ≤ e < 2^expBits using only table
// multiplications.
func (fb *fixedBase) Exp(e *big.Int) *big.Int {
	out := big.NewInt(1)
	mask := uint((1 << fb.window) - 1)
	for i, row := range fb.table {
		d := digitAt(e, uint(i)*fb.window, fb.window) & mask
		if d != 0 {
			out.Mul(out, row[d-1])
			out.Mod(out, fb.m)
		}
	}
	return out
}

// digitAt extracts w bits of e starting at bit position pos.
func digitAt(e *big.Int, pos, w uint) uint {
	var d uint
	for b := uint(0); b < w; b++ {
		if e.Bit(int(pos+b)) == 1 {
			d |= 1 << b
		}
	}
	return d
}

// paillierPrecomp is the per-key precomputation state. Both fields are
// immutable once the struct is published through the key's atomic pointer
// (the channel itself is the only synchronization the pool needs).
type paillierPrecomp struct {
	fb   *fixedBase
	pool chan *big.Int
}

// Precompute builds the fixed-base randomizer table of the key (idempotent,
// safe for concurrent use). Encrypt and EncryptBatch then derive
// randomizers from the table instead of a fresh full-width exponentiation.
func (p *Paillier) Precompute() error {
	if p.pre.Load() != nil {
		return nil
	}
	p.preMu.Lock()
	defer p.preMu.Unlock()
	if p.pre.Load() != nil {
		return nil
	}
	// h uniform unit of Z_n*; hn = h^n mod n² generates the randomizer
	// subgroup the textbook scheme samples from.
	var h *big.Int
	for {
		var err error
		h, err = rand.Int(rand.Reader, p.N)
		if err != nil {
			return err
		}
		if h.Sign() > 0 && new(big.Int).GCD(nil, nil, h, p.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	hn := new(big.Int).Exp(h, p.N, p.N2)
	pre := &paillierPrecomp{
		fb:   newFixedBase(hn, p.N2, p.N.BitLen(), fixedBaseWindow),
		pool: make(chan *big.Int, paillierPoolCap),
	}
	p.pre.Store(pre)
	return nil
}

// Precomputed reports whether the fixed-base table has been built.
func (p *Paillier) Precomputed() bool { return p.pre.Load() != nil }

// ReleasePrecomputed drops the fixed-base table and the randomizer pool —
// 3.8 MB per key at 512-bit primes. Calls in flight keep the table they
// loaded and later ones rebuild it on demand through Precompute, so a
// caller that knows the key will not encrypt for a while (a plan whose
// ciphertext is now cached) can hand the memory back.
func (p *Paillier) ReleasePrecomputed() { p.pre.Store(nil) }

// newRandomizer derives one fresh randomizer from the fixed-base table.
func (pre *paillierPrecomp) newRandomizer() (*big.Int, error) {
	max := new(big.Int).Lsh(big.NewInt(1), uint(pre.fb.expBits))
	rho, err := rand.Int(rand.Reader, max)
	if err != nil {
		return nil, err
	}
	return pre.fb.Exp(rho), nil
}

// PrecomputeRandomizers fills the key's randomizer pool with count
// precomputed values (building the fixed-base table first if needed), up to
// the pool capacity. Encryptions pop pooled randomizers in O(1) and fall
// back to the table when the pool runs dry.
func (p *Paillier) PrecomputeRandomizers(count int) error {
	if err := p.Precompute(); err != nil {
		return err
	}
	pre := p.pre.Load()
	for i := 0; i < count; i++ {
		rn, err := pre.newRandomizer()
		if err != nil {
			return err
		}
		select {
		case pre.pool <- rn:
		default:
			return nil // pool full
		}
	}
	return nil
}

// BackgroundRandomizers fills the randomizer pool from a background
// goroutine and returns immediately; the returned channel closes when the
// fill completes (results stay identical either way — the pool only moves
// randomizer generation off the encryption path).
func (p *Paillier) BackgroundRandomizers(count int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.PrecomputeRandomizers(count)
	}()
	return done
}

// randomizer returns r^n mod n² for a fresh randomizer r: pooled if
// available, from the fixed-base table if built, else the textbook
// full-width exponentiation.
func (p *Paillier) randomizer() (*big.Int, error) {
	if pre := p.pre.Load(); pre != nil {
		select {
		case rn := <-pre.pool:
			cryptoStats.poolHits.Add(1)
			return rn, nil
		default:
		}
		cryptoStats.poolMisses.Add(1)
		return pre.newRandomizer()
	}
	cryptoStats.poolMisses.Add(1)
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rand.Reader, p.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, p.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	return new(big.Int).Exp(r, p.N, p.N2), nil
}

// EncryptBatch encrypts a column of signed integer messages, amortizing the
// randomizer cost: it builds the fixed-base table once for batches of at
// least paillierBatchPrecompute values and consumes pooled randomizers
// first. Ciphertexts are decrypt-identical to per-value Encrypt results.
func (p *Paillier) EncryptBatch(ms []*big.Int) ([]*big.Int, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	cryptoStats.encryptBatches.Add(1)
	cryptoStats.pheEncrypts.Add(uint64(len(ms)))
	half := new(big.Int).Rsh(p.N, 1)
	for _, m := range ms {
		if new(big.Int).Abs(m).Cmp(half) >= 0 {
			return nil, fmt.Errorf("crypto: paillier: message magnitude exceeds n/2")
		}
	}
	if len(ms) >= paillierBatchPrecompute {
		if err := p.Precompute(); err != nil {
			return nil, err
		}
	}
	out := make([]*big.Int, len(ms))
	gm := new(big.Int)
	for i, m := range ms {
		rn, err := p.randomizer()
		if err != nil {
			return nil, err
		}
		// c = (1 + m·n) · rn mod n².
		gm.Mul(p.encodeSigned(m), p.N)
		gm.Add(gm, big.NewInt(1))
		gm.Mod(gm, p.N2)
		c := new(big.Int).Mul(gm, rn)
		out[i] = c.Mod(c, p.N2)
	}
	return out, nil
}

// AddTo homomorphically accumulates a ciphertext into acc in place
// (Dec(acc) gains m), avoiding the per-addition allocation of Add on the
// aggregation hot path. acc must be owned by the caller.
func (p *Paillier) AddTo(acc, c *big.Int) *big.Int {
	acc.Mul(acc, c)
	return acc.Mod(acc, p.N2)
}
