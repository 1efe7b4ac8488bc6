package crypto

import (
	"errors"
	"fmt"
	"sync"
)

// DefaultPaillierBits is the per-prime size in bits used for Paillier key
// pairs outside tests: 512-bit primes p and q, giving a 1024-bit modulus
// n = p·q (GeneratePaillier takes the prime size, not the modulus size; the
// paper's tool estimated Paillier costs from common benchmarks at this
// modulus, and the cost model carries the computational factors). Override
// it per deployment through engine.Config.PaillierBits.
const DefaultPaillierBits = 512

// KeyRing holds the key material of one query-plan key (Definition 6.1):
// a symmetric master key from which the deterministic, randomized, and OPE
// schemes derive subkeys, plus — only when the key covers an attribute
// aggregated homomorphically — a Paillier key pair. A KeyRing may be
// symmetric-only (PK nil) or public-only (Paillier public part, no
// symmetric master), modelling a provider that can add ciphertexts but
// decrypt nothing.
//
// The derived ciphers — subkey HKDF and AES key schedule included — are
// built once on first use and cached, so the batch encrypt/decrypt path
// pays only an atomic load per column thereafter.
type KeyRing struct {
	ID     string
	Master []byte
	PK     *Paillier

	detOnce onceCell[*Deterministic]
	rndOnce onceCell[*Randomized]
	opeOnce onceCell[*OPE]
}

// onceCell caches a lazily-constructed cipher with its construction error.
type onceCell[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (c *onceCell[T]) get(build func() (T, error)) (T, error) {
	c.once.Do(func() { c.val, c.err = build() })
	return c.val, c.err
}

// ErrNoPaillier reports a Paillier operation on a ring that carries no
// Paillier key.
var ErrNoPaillier = errors.New("crypto: no Paillier key")

// NewKeyRing generates the key material for one query-plan key whose
// attributes need Paillier: a symmetric master and a key pair with primes
// of the given bit size.
func NewKeyRing(id string, paillierBits int) (*KeyRing, error) {
	ring, err := NewSymmetricKeyRing(id)
	if err != nil {
		return nil, err
	}
	if ring.PK, err = GeneratePaillier(paillierBits); err != nil {
		return nil, err
	}
	return ring, nil
}

// NewSymmetricKeyRing generates the key material for one query-plan key
// whose attributes use only the symmetric schemes: a fresh master, no
// Paillier key pair.
func NewSymmetricKeyRing(id string) (*KeyRing, error) {
	master, err := NewKey()
	if err != nil {
		return nil, err
	}
	return &KeyRing{ID: id, Master: master}, nil
}

// Public returns a copy of the ring a computation-only provider receives:
// the Paillier public key (if the ring has one), no symmetric material.
func (k *KeyRing) Public() *KeyRing {
	pub := &KeyRing{ID: k.ID}
	if k.PK != nil {
		pub.PK = k.PK.Public()
	}
	return pub
}

// Paillier returns the ring's Paillier key, or an error wrapping
// ErrNoPaillier when the ring is symmetric-only.
func (k *KeyRing) Paillier() (*Paillier, error) {
	if k.PK == nil {
		return nil, fmt.Errorf("crypto: key %s: %w", k.ID, ErrNoPaillier)
	}
	return k.PK, nil
}

// CanDecrypt reports whether the ring holds symmetric key material.
func (k *KeyRing) CanDecrypt() bool { return len(k.Master) == KeySize }

// Det returns the deterministic cipher of the ring, built (subkey
// derivation and AES key schedule) once on first use.
func (k *KeyRing) Det() (*Deterministic, error) {
	return k.detOnce.get(func() (*Deterministic, error) {
		if !k.CanDecrypt() {
			return nil, fmt.Errorf("crypto: key %s: no symmetric material", k.ID)
		}
		return NewDeterministic(k.Master)
	})
}

// Rnd returns the randomized cipher of the ring, built once on first use.
func (k *KeyRing) Rnd() (*Randomized, error) {
	return k.rndOnce.get(func() (*Randomized, error) {
		if !k.CanDecrypt() {
			return nil, fmt.Errorf("crypto: key %s: no symmetric material", k.ID)
		}
		return NewRandomized(k.Master)
	})
}

// OPE returns the order-preserving cipher of the ring, built once on first
// use.
func (k *KeyRing) OPE() (*OPE, error) {
	return k.opeOnce.get(func() (*OPE, error) {
		if !k.CanDecrypt() {
			return nil, fmt.Errorf("crypto: key %s: no symmetric material", k.ID)
		}
		return NewOPE(k.Master), nil
	})
}

// KeyStore maps key identifiers to rings: the keys a given subject has been
// communicated for a query-plan execution.
type KeyStore struct {
	mu    sync.RWMutex
	rings map[string]*KeyRing
}

// NewKeyStore returns an empty store.
func NewKeyStore() *KeyStore { return &KeyStore{rings: make(map[string]*KeyRing)} }

// Add registers a ring.
func (s *KeyStore) Add(r *KeyRing) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rings[r.ID] = r
}

// Get returns the ring for a key id, or an error when the subject does not
// hold it.
func (s *KeyStore) Get(id string) (*KeyRing, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r, ok := s.rings[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("crypto: key %s not held", id)
}

// IDs returns the held key identifiers.
func (s *KeyStore) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rings))
	for id := range s.rings {
		out = append(out, id)
	}
	return out
}
