package crypto

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
)

// Paillier implements the Paillier cryptosystem: public-key encryption with
// additive homomorphism. Providers holding only the public key can add
// ciphertexts (computing encrypted sums and averages) without learning the
// operands, which is how sum/avg aggregates are evaluated over encrypted
// attributes.
type Paillier struct {
	// Public key.
	N  *big.Int // n = p·q
	N2 *big.Int // n²
	G  *big.Int // g = n + 1

	// Private key (nil on a public-only copy).
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^λ mod n²))⁻¹ mod n

	// CRT decryption state, present when the factorization n = p·q is known
	// (generated keys, and unmarshaled rings that carry a prime factor).
	// Decrypting mod p² and q² and recombining costs two half-width
	// exponentiations instead of one full-width one — roughly 4× less work —
	// and is exactly equivalent; keys without it (legacy wire blobs) fall
	// back to the textbook path.
	p, q       *big.Int
	p2, q2     *big.Int // p², q²
	pOrd, qOrd *big.Int // p-1, q-1 (the CRT decryption exponents)
	hp, hq     *big.Int // Lp(g^(p-1) mod p²)⁻¹ mod p and the q analogue
	qInvP      *big.Int // q⁻¹ mod p (Garner recombination)

	// Randomizer tables over p² and q², built lazily; see paillier_precomp.go.
	preMu sync.Mutex
	pre   atomic.Pointer[crtTables]
}

// ErrNoPrivateKey reports a decryption attempted with a public-only key.
var ErrNoPrivateKey = errors.New("crypto: paillier: no private key")

// GeneratePaillier generates a key pair with primes of the given bit size.
// Bits of 512 gives a 1024-bit modulus; tests use smaller sizes for speed.
func GeneratePaillier(bits int) (*Paillier, error) {
	if bits < 16 {
		return nil, fmt.Errorf("crypto: paillier: prime size %d too small", bits)
	}
	for {
		p, err := rand.Prime(rand.Reader, bits)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(rand.Reader, bits)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		p1 := new(big.Int).Sub(p, big.NewInt(1))
		q1 := new(big.Int).Sub(q, big.NewInt(1))
		gcd := new(big.Int).GCD(nil, nil, p1, q1)
		lambda := new(big.Int).Div(new(big.Int).Mul(p1, q1), gcd)

		pk := &Paillier{
			N:      n,
			N2:     new(big.Int).Mul(n, n),
			G:      new(big.Int).Add(n, big.NewInt(1)),
			lambda: lambda,
		}
		// µ = (L(g^λ mod n²))⁻¹ mod n
		u := new(big.Int).Exp(pk.G, lambda, pk.N2)
		l := pk.lFunc(u)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue // degenerate pair; retry
		}
		pk.mu = mu
		if !pk.initCRT(p, q) {
			continue // degenerate pair; retry
		}
		cryptoStats.paillierKeygens.Add(1)
		return pk, nil
	}
}

// initCRT derives the CRT decryption state from the prime factorization.
// It reports false when any required inverse does not exist (degenerate
// factors), leaving the key on the textbook path.
func (p *Paillier) initCRT(pp, qq *big.Int) bool {
	one := big.NewInt(1)
	p2 := new(big.Int).Mul(pp, pp)
	q2 := new(big.Int).Mul(qq, qq)
	pOrd := new(big.Int).Sub(pp, one)
	qOrd := new(big.Int).Sub(qq, one)
	// hp = Lp(g^(p-1) mod p²)⁻¹ mod p, with Lp(u) = (u-1)/p.
	hp := new(big.Int).ModInverse(lOf(new(big.Int).Exp(p.G, pOrd, p2), pp), pp)
	hq := new(big.Int).ModInverse(lOf(new(big.Int).Exp(p.G, qOrd, q2), qq), qq)
	qInvP := new(big.Int).ModInverse(qq, pp)
	if hp == nil || hq == nil || qInvP == nil {
		return false
	}
	p.p, p.q, p.p2, p.q2 = pp, qq, p2, q2
	p.pOrd, p.qOrd = pOrd, qOrd
	p.hp, p.hq, p.qInvP = hp, hq, qInvP
	return true
}

// Public returns a copy of the key holding only the public part: it can
// encrypt and add, but not decrypt.
func (p *Paillier) Public() *Paillier {
	return &Paillier{N: p.N, N2: p.N2, G: p.G}
}

// HasPrivate reports whether the key can decrypt.
func (p *Paillier) HasPrivate() bool { return p.lambda != nil }

// lFunc computes L(u) = (u - 1) / n.
func (p *Paillier) lFunc(u *big.Int) *big.Int {
	return lOf(u, p.N)
}

// lOf computes L(u) = (u - 1) / d for the modulus-specific L functions.
func lOf(u, d *big.Int) *big.Int {
	return new(big.Int).Div(new(big.Int).Sub(u, big.NewInt(1)), d)
}

// encodeSigned maps a signed message into Z_n (negative values wrap to the
// top half of the group, decoded back by Decrypt).
func (p *Paillier) encodeSigned(m *big.Int) *big.Int {
	return new(big.Int).Mod(m, p.N)
}

// Encrypt encrypts a signed integer message. The message magnitude must be
// below n/2 for unambiguous signed decoding.
func (p *Paillier) Encrypt(m *big.Int) (*big.Int, error) {
	cryptoStats.pheEncrypts.Add(1)
	half := new(big.Int).Rsh(p.N, 1)
	if new(big.Int).Abs(m).Cmp(half) >= 0 {
		return nil, fmt.Errorf("crypto: paillier: message magnitude exceeds n/2")
	}
	// r^n mod n² for a fresh randomizer r: from the CRT tables when the key
	// has been precomputed, else the textbook full-width exponentiation.
	rn, err := p.randomizer()
	if err != nil {
		return nil, err
	}
	// c = g^m · r^n mod n²; with g = n+1, g^m = 1 + m·n mod n².
	gm := new(big.Int).Mul(p.encodeSigned(m), p.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, p.N2)
	c := new(big.Int).Mul(gm, rn)
	c.Mod(c, p.N2)
	return c, nil
}

// Decrypt recovers the signed message of a ciphertext, via CRT when the
// factorization is known and the textbook single exponentiation otherwise.
func (p *Paillier) Decrypt(c *big.Int) (*big.Int, error) {
	cryptoStats.pheDecrypts.Add(1)
	if !p.HasPrivate() {
		return nil, ErrNoPrivateKey
	}
	return p.decrypt(c), nil
}

// decrypt is Decrypt for a private key, without the counter.
func (p *Paillier) decrypt(c *big.Int) *big.Int {
	var m *big.Int
	if p.p != nil {
		m = p.decryptCRT(c)
	} else {
		u := new(big.Int).Exp(c, p.lambda, p.N2)
		m = p.lFunc(u)
		m.Mul(m, p.mu)
		m.Mod(m, p.N)
	}
	// Decode signed representation.
	half := new(big.Int).Rsh(p.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, p.N)
	}
	return m
}

// decryptCRT recovers m mod n by decrypting mod p² and q² separately —
// mp = Lp(c^(p-1) mod p²)·hp mod p and the q analogue — then recombining
// with Garner's formula m = mq + q·((mp - mq)·q⁻¹ mod p). The two
// exponentiations run over half-width moduli with half-width exponents, so
// the whole decryption does ~4× less modular work than c^λ mod n².
func (p *Paillier) decryptCRT(c *big.Int) *big.Int {
	mp := lOf(new(big.Int).Exp(c, p.pOrd, p.p2), p.p)
	mp.Mul(mp, p.hp)
	mp.Mod(mp, p.p)
	mq := lOf(new(big.Int).Exp(c, p.qOrd, p.q2), p.q)
	mq.Mul(mq, p.hq)
	mq.Mod(mq, p.q)
	h := new(big.Int).Sub(mp, mq)
	h.Mul(h, p.qInvP)
	h.Mod(h, p.p)
	m := h.Mul(h, p.q)
	return m.Add(m, mq)
}

// pheSlotBits is the width w of one packed plaintext slot in DecryptBatch.
const pheSlotBits = 128

var (
	pheSlotBase = new(big.Int).Lsh(big.NewInt(1), pheSlotBits)   // 2^w
	pheSlotMask = new(big.Int).Sub(pheSlotBase, big.NewInt(1))   // 2^w − 1
	pheSlotMax  = new(big.Int).Lsh(big.NewInt(1), pheSlotBits-1) // 2^(w−1)
)

// errBatchBound reports a DecryptBatch plaintext of magnitude 2^127 or more.
var errBatchBound = errors.New("crypto: paillier: batch plaintext exceeds 2^127")

// DecryptBatch decrypts ciphertexts whose plaintexts satisfy |m| < 2^127 and
// returns, in order, what Decrypt returns for each.
//
// It rests on two exact facts. A plaintext with |m| < p/2 is fully
// determined by m mod p, so the q² half of decryptCRT is wasted work. And
// decryption mod p is additively homomorphic, so s ciphertexts fold into one
// by Horner's rule mod p², C ← C^(2^w)·c_j, whose plaintext is
// Σ m_j·2^(w·(s−1−j)). One exponentiation by p−1 decrypts it, and the m_j
// are read back as balanced base-2^w digits, the last ciphertext in the
// lowest slot. With w = 128 and s = ⌊(bits(p)−2)/w⌋ — 3 at 512-bit primes,
// 7 at 1024-bit — the packed value has magnitude below 2^(bits(p)−3) < p/2,
// so it too is determined mod p.
//
// The executor's ciphertexts meet the bound: its fixed-point encoding
// scales an int64 by 10⁴, so |v| < 2^77, and a cell needs 2^50 homomorphic
// additions to reach 2^127. A batch whose first slot overflows is an
// error; an overflow in a lower slot carries silently.
//
// A key without its factorization, or whose p is too narrow for one slot,
// decrypts value by value. A public-only key returns ErrNoPrivateKey. Like
// len(cs) calls to Decrypt, it counts len(cs) Paillier decryptions.
func (p *Paillier) DecryptBatch(cs []*big.Int) ([]*big.Int, error) {
	cryptoStats.decryptBatches.Add(1)
	cryptoStats.pheDecrypts.Add(uint64(len(cs)))
	if !p.HasPrivate() {
		return nil, ErrNoPrivateKey
	}
	out := make([]*big.Int, len(cs))
	slots := 0
	if p.p != nil {
		slots = (p.p.BitLen() - 2) / pheSlotBits
	}
	if slots == 0 {
		for i, c := range cs {
			out[i] = p.decrypt(c)
		}
		return out, nil
	}
	for lo := 0; lo < len(cs); lo += slots {
		hi := min(lo+slots, len(cs))
		if err := p.decryptPacked(cs[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decryptPacked decrypts up to one key's slot count of ciphertexts with one
// exponentiation mod p² (see DecryptBatch), writing the plaintexts to out.
func (p *Paillier) decryptPacked(cs, out []*big.Int) error {
	var acc, c, quo big.Int
	quo.QuoRem(cs[0], p.p2, &acc)
	for _, ct := range cs[1:] {
		// acc^(2^w) as (acc^(2^(w−1)))²: big.Int.Exp walks every word of
		// the exponent, and 2^(w−1) spans one word fewer than 2^w.
		acc.Exp(&acc, pheSlotMax, p.p2)
		quo.QuoRem(c.Mul(&acc, &acc), p.p2, &acc)
		quo.QuoRem(ct, p.p2, &c)
		quo.QuoRem(c.Mul(&acc, &c), p.p2, &acc)
	}
	m := lOf(acc.Exp(&acc, p.pOrd, p.p2), p.p)
	quo.QuoRem(m.Mul(m, p.hp), p.p, m)
	if m.Cmp(c.Rsh(p.p, 1)) > 0 {
		m.Sub(m, p.p)
	}
	for i := len(cs) - 1; i >= 0; i-- {
		d := new(big.Int).And(m, pheSlotMask) // two's complement low w bits
		if d.Cmp(pheSlotMax) >= 0 {
			d.Sub(d, pheSlotBase)
		}
		out[i] = d
		m.Rsh(m.Sub(m, d), pheSlotBits)
	}
	if m.Sign() != 0 {
		return errBatchBound
	}
	return nil
}

// Add homomorphically adds two ciphertexts: Dec(Add(c1,c2)) = m1 + m2.
func (p *Paillier) Add(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, p.N2)
}
