package crypto

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// Paillier encryption spends almost all of its time computing the
// randomizer r^n mod n² (with g = n+1, the message part g^m is a single
// multiplication). A fixed-base windowed exponentiation table cuts that
// cost: at first batch use (or an explicit Precompute call) the key picks a
// random unit h, computes hn = h^n mod n², and tabulates hn^(j·2^(i·w)) for
// every window digit. A randomizer is then hn^ρ for a fresh random ρ — one
// table multiplication per window digit, no squarings. Any such value is a
// valid Paillier randomizer ((h^ρ)^n), so ciphertexts decrypt exactly as
// before; only the (still computationally hidden) randomizer distribution
// differs, which the decrypt-equivalence oracle accepts.
//
// Per-value Encrypt keeps the textbook path until a precomputation is
// requested; EncryptBatch precomputes automatically for batches worth the
// table construction.

// fixedBaseWindow is the window width in bits of the precomputed tables: a
// digits×(2^w-1) table turns an e-bit exponentiation into ceil(e/w)
// multiplications.
const fixedBaseWindow = 5

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
	h, err := randomUnit(p.N)
	if err != nil {
		return err
	}
	hn := new(big.Int).Exp(h, p.N, p.N2)
	p.pre.Store(newFixedBase(hn, p.N2, p.N.BitLen(), fixedBaseWindow))
	return nil
}

// Precomputed reports whether the fixed-base table has been built.
func (p *Paillier) Precomputed() bool { return p.pre.Load() != nil }

// ReleasePrecomputed drops the fixed-base table — 3.8 MB per key at 512-bit
// primes. Calls in flight keep the table they loaded and later ones rebuild
// it on demand through Precompute, so a caller that knows the key will not
// encrypt for a while (a plan whose ciphertext is now cached) can hand the
// memory back.
func (p *Paillier) ReleasePrecomputed() { p.pre.Store(nil) }

// randomizer derives one fresh randomizer hn^ρ from the table.
func (fb *fixedBase) randomizer() (*big.Int, error) {
	rho, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(fb.expBits)))
	if err != nil {
		return nil, err
	}
	return fb.Exp(rho), nil
}

// randomizer returns r^n mod n² for a fresh randomizer r: from the
// fixed-base table if built, else the textbook full-width exponentiation.
func (p *Paillier) randomizer() (*big.Int, error) {
	if fb := p.pre.Load(); fb != nil {
		return fb.randomizer()
	}
	r, err := randomUnit(p.N)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(r, p.N, p.N2), nil
}

// randomUnit draws a uniform element of Z_n*.
func randomUnit(n *big.Int) (*big.Int, error) {
	one := big.NewInt(1)
	for {
		r, err := rand.Int(rand.Reader, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// EncryptBatch encrypts a column of signed integer messages, amortizing the
// randomizer cost: it builds the fixed-base table once for batches of at
// least paillierBatchPrecompute values. Ciphertexts are decrypt-identical to
// per-value Encrypt results.
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
