package crypto

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// Paillier encryption spends almost all of its time computing the
// randomizer r^n mod n² (with g = n+1, the message part g^m is a single
// multiplication). At first batch use (or an explicit Precompute call) a
// key that knows n = p·q picks a random unit h and tabulates hn = h^n mod
// n² modulo p² and modulo q² for every window digit. A randomizer is then
// hn^ρ for a fresh random ρ: T_p(ρ mod (p−1)) and T_q(ρ mod (q−1)) — one
// half-width table multiplication per window digit, no squarings — joined
// by Garner recombination. hn has order dividing p−1 in Z*_{p²} (and q−1
// in Z*_{q²}), so the result is bit-identical to hn^ρ mod n². Any such
// value is a valid randomizer ((h^ρ)^n), so ciphertexts decrypt exactly as
// before; only the (still computationally hidden) randomizer distribution
// differs from the textbook one, which the decrypt-equivalence oracle
// accepts. Keys without the factorization (Public copies, legacy wire
// blobs) build no tables and keep the textbook path, as does per-value
// Encrypt until a precomputation is requested.

// fixedBaseWindow is the window width in bits of the precomputed tables: a
// digits×(2^w-1) table turns an e-bit exponentiation into ceil(e/w)
// multiplications.
const fixedBaseWindow = 5

// paillierBatchPrecompute is the batch size from which EncryptBatch builds
// the randomizer tables on first use.
const paillierBatchPrecompute = 16

// fixedBase is a windowed fixed-base exponentiation table: table[i][j-1]
// holds base^(j·2^(i·w)) mod m, so x = base^e is the product of one table
// entry per non-zero window digit of e.
type fixedBase struct {
	m     *big.Int
	table [][]*big.Int
}

// newFixedBase tabulates base^(j·2^(i·w)) mod m for exponents up to expBits
// bits. Entries are tight copies, not the products' double-width buffers.
func newFixedBase(base, m *big.Int, expBits int) *fixedBase {
	digits := (expBits + fixedBaseWindow - 1) / fixedBaseWindow
	fb := &fixedBase{m: m, table: make([][]*big.Int, digits)}
	var prod, quo, rem big.Int
	mulMod := func(x, y *big.Int) *big.Int {
		quo.QuoRem(prod.Mul(x, y), m, &rem)
		return new(big.Int).Set(&rem)
	}
	cur := base
	for i := range fb.table {
		row := make([]*big.Int, 1<<fixedBaseWindow-1)
		row[0] = cur
		for j := 1; j < len(row); j++ {
			row[j] = mulMod(row[j-1], cur)
		}
		fb.table[i] = row
		cur = mulMod(row[len(row)-1], cur) // base^(2^((i+1)·w))
	}
	return fb
}

// Exp computes base^e mod m for 0 ≤ e < 2^(w·len(table)) using only table
// multiplications, each into a scratch product reduced into the result, so
// the loop reuses three buffers instead of allocating two per digit.
func (fb *fixedBase) Exp(e *big.Int) *big.Int {
	out := big.NewInt(1)
	var prod, quo big.Int
	for i, row := range fb.table {
		var d uint
		for b := 0; b < fixedBaseWindow; b++ {
			d |= e.Bit(i*fixedBaseWindow+b) << b
		}
		if d != 0 {
			quo.QuoRem(prod.Mul(out, row[d-1]), fb.m, out)
		}
	}
	return out
}

// crtTables are a key's randomizer tables: hn mod p² and hn mod q².
type crtTables struct {
	key     *Paillier
	tp, tq  *fixedBase
	q2InvP2 *big.Int // (q²)⁻¹ mod p² (Garner recombination)
	// rhoMax bounds ρ at n's width rounded up to a window, so ρ mod (p−1)
	// and ρ mod (q−1) are close to uniform.
	rhoMax *big.Int
}

// newCRTTables tabulates hn = h^n mod n² modulo p² and q² (hn mod p² is
// h^n mod p², so the full-width hn is never formed) for a key that carries
// its factorization.
func (p *Paillier) newCRTTables(h *big.Int) *crtTables {
	rhoBits := (p.N.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow * fixedBaseWindow
	return &crtTables{
		key:     p,
		tp:      newFixedBase(new(big.Int).Exp(h, p.N, p.p2), p.p2, p.pOrd.BitLen()),
		tq:      newFixedBase(new(big.Int).Exp(h, p.N, p.q2), p.q2, p.qOrd.BitLen()),
		q2InvP2: new(big.Int).ModInverse(p.q2, p.p2),
		rhoMax:  new(big.Int).Lsh(big.NewInt(1), uint(rhoBits)),
	}
}

// exp returns hn^ρ mod n² for ρ ≥ 0 as x = rq + q²·((rp − rq)·(q²)⁻¹ mod
// p²), the unique x < n² with x ≡ rp (mod p²) and x ≡ rq (mod q²).
func (t *crtTables) exp(rho *big.Int) *big.Int {
	k := t.key
	var e, quo big.Int
	quo.QuoRem(rho, k.pOrd, &e)
	rp := t.tp.Exp(&e)
	quo.QuoRem(rho, k.qOrd, &e)
	rq := t.tq.Exp(&e)
	quo.QuoRem(e.Mul(rp.Sub(rp, rq), t.q2InvP2), k.p2, rp)
	if rp.Sign() < 0 {
		rp.Add(rp, k.p2)
	}
	return e.Add(e.Mul(rp, k.q2), rq)
}

// Precompute builds the key's randomizer tables (idempotent, safe for
// concurrent use); a key without its factorization builds none.
func (p *Paillier) Precompute() error {
	if p.p == nil || p.pre.Load() != nil {
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
	p.pre.Store(p.newCRTTables(h))
	return nil
}

// Precomputed reports whether the randomizer tables have been built.
func (p *Paillier) Precomputed() bool { return p.pre.Load() != nil }

// ReleasePrecomputed drops the randomizer tables — 1.3 MB per key at
// 512-bit primes. Calls in flight keep the tables they loaded and later
// ones rebuild them on demand through Precompute, so a caller that knows
// the key will not encrypt for a while (a plan whose ciphertext is now
// cached) can hand the memory back.
func (p *Paillier) ReleasePrecomputed() { p.pre.Store(nil) }

// randomizer returns r^n mod n² for a fresh randomizer r: hn^ρ from the
// tables if built, else the textbook full-width exponentiation.
func (p *Paillier) randomizer() (*big.Int, error) {
	if t := p.pre.Load(); t != nil {
		rho, err := rand.Int(rand.Reader, t.rhoMax)
		if err != nil {
			return nil, err
		}
		return t.exp(rho), nil
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
// randomizer cost: it builds the randomizer tables once for batches of at
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

// AddScratch holds the product and quotient of AddTo. Reused across
// additions, it keeps them allocation-free. One scratch serves one
// goroutine at a time.
type AddScratch struct{ prod, quo big.Int }

// AddTo homomorphically accumulates a ciphertext into acc in place
// (Dec(acc) gains m): the product goes to s and its remainder mod n² back
// to acc, so repeated additions allocate nothing once s and acc have grown.
// acc must be owned by the caller.
func (p *Paillier) AddTo(acc, c *big.Int, s *AddScratch) *big.Int {
	s.prod.Mul(acc, c)
	s.quo.QuoRem(&s.prod, p.N2, acc) // both factors are in [0, n²): the remainder is Mod's
	return acc
}
