package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
	"io"
)

// This file holds the batch entry points of the symmetric schemes. The
// per-value Encrypt/Decrypt calls pay a fixed setup cost per cell — a fresh
// HMAC (two extra compressions plus two hash-state allocations), a CTR
// stream object, and an output allocation. The batch variants amortize all
// of it across a column: one HMAC instance reset per value, one contiguous
// output arena sliced per ciphertext, one bulk read of randomized nonces,
// and a stack-buffer CTR keystream instead of cipher.NewCTR. Outputs are
// bit-identical to the per-value calls for the deterministic schemes and
// decrypt-identical for the randomized one (fresh nonces are still drawn
// per value).

// ctrStripeBlocks is the number of keystream blocks generated per stripe on
// the multi-block path: 128 bytes covers most wide string cells in one
// stripe while keeping the scratch state small enough to live on the stack.
const ctrStripeBlocks = 8

// ctrState is the scratch space of the manual CTR keystream. It lives once
// per batch call: the buffers escape through the cipher.Block interface, so
// declaring them per value would cost heap allocations each.
type ctrState struct {
	ctr, ks [aes.BlockSize]byte
	stripe  [ctrStripeBlocks * aes.BlockSize]byte
}

// xor encrypts/decrypts src into dst with AES-CTR starting at iv (16
// bytes). It produces exactly the keystream of
// cipher.NewCTR(block, iv).XORKeyStream.
func (s *ctrState) xor(block cipher.Block, iv []byte, dst, src []byte) {
	if len(src) <= aes.BlockSize {
		// Single-block fast path (typical encoded cell: ≤ 16 bytes): the
		// keystream is one AES block of the IV itself — no counter copy,
		// no increment.
		block.Encrypt(s.ks[:], iv[:aes.BlockSize])
		for i := range src {
			dst[i] = src[i] ^ s.ks[i]
		}
		return
	}
	// Multi-block path (wide string cells): generate the keystream a stripe
	// of blocks at a time, then XOR each stripe with one word-wide
	// subtle.XORBytes call instead of a per-byte loop.
	copy(s.ctr[:], iv)
	for len(src) > 0 {
		ks := s.stripe[:]
		if len(src) < len(ks) {
			blocks := (len(src) + aes.BlockSize - 1) / aes.BlockSize
			ks = ks[:blocks*aes.BlockSize]
		}
		for off := 0; off < len(ks); off += aes.BlockSize {
			block.Encrypt(ks[off:off+aes.BlockSize], s.ctr[:])
			// Big-endian counter increment, as cipher.NewCTR does.
			for i := aes.BlockSize - 1; i >= 0; i-- {
				s.ctr[i]++
				if s.ctr[i] != 0 {
					break
				}
			}
		}
		// XORBytes stops at the shortest operand, so the final stripe's
		// keystream tail past len(src) is simply unused.
		n := subtle.XORBytes(dst, src, ks)
		dst, src = dst[n:], src[n:]
	}
}

// packSlices copies scattered plaintext slices into one packed arena (slot
// i at bounds[i]:bounds[i+1]), the input form of the arena entry points.
func packSlices(pts [][]byte) (arena []byte, bounds []int) {
	bounds = make([]int, len(pts)+1)
	for i, pt := range pts {
		bounds[i+1] = bounds[i] + len(pt)
	}
	arena = make([]byte, bounds[len(pts)])
	for i, pt := range pts {
		copy(arena[bounds[i]:], pt)
	}
	return arena, bounds
}

// unpackCiphertexts cuts the packed ciphertext arena of EncryptArena back
// into per-value slices (slot i widened by the aes.BlockSize nonce).
func unpackCiphertexts(ct []byte, bounds []int) [][]byte {
	n := len(bounds) - 1
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		lo, hi := bounds[i]+i*aes.BlockSize, bounds[i+1]+(i+1)*aes.BlockSize
		out[i] = ct[lo:hi:hi]
	}
	return out
}

// Arena entry points: the column's plaintexts travel as one packed buffer
// (slot i spans pt[bounds[i]:bounds[i+1]]) and the ciphertexts come back
// packed the same way, each slot widened by the aes.BlockSize nonce — slot
// i of the result spans [bounds[i]+i·16, bounds[i+1]+(i+1)·16). Compared
// to the [][]byte batch calls this drops every per-slot slice header, so
// the garbage collector sees two flat byte buffers instead of 2n pointers.

// EncryptArena deterministically encrypts the packed plaintext slots,
// bit-identical to per-value Encrypt calls.
func (d *Deterministic) EncryptArena(pt []byte, bounds []int) ([]byte, error) {
	n := len(bounds) - 1
	if n <= 0 {
		return nil, nil
	}
	cryptoStats.encryptBatches.Add(1)
	cryptoStats.detEncrypts.Add(uint64(n))
	out := make([]byte, len(pt)+n*aes.BlockSize)
	mac := hmac.New(sha256.New, d.macKey)
	var sum [sha256.Size]byte
	var st ctrState
	for i := 0; i < n; i++ {
		slot := pt[bounds[i]:bounds[i+1]]
		ct := out[bounds[i]+i*aes.BlockSize : bounds[i+1]+(i+1)*aes.BlockSize]
		mac.Reset()
		mac.Write(slot)
		iv := mac.Sum(sum[:0])[:aes.BlockSize]
		copy(ct, iv)
		st.xor(d.block, iv, ct[aes.BlockSize:], slot)
	}
	return out, nil
}

// EncryptArena encrypts the packed plaintext slots with fresh random
// nonces drawn in one bulk read.
func (r *Randomized) EncryptArena(pt []byte, bounds []int) ([]byte, error) {
	n := len(bounds) - 1
	if n <= 0 {
		return nil, nil
	}
	cryptoStats.encryptBatches.Add(1)
	cryptoStats.rndEncrypts.Add(uint64(n))
	out := make([]byte, len(pt)+n*aes.BlockSize)
	nonces := make([]byte, aes.BlockSize*n)
	if _, err := io.ReadFull(rand.Reader, nonces); err != nil {
		return nil, err
	}
	var st ctrState
	for i := 0; i < n; i++ {
		slot := pt[bounds[i]:bounds[i+1]]
		ct := out[bounds[i]+i*aes.BlockSize : bounds[i+1]+(i+1)*aes.BlockSize]
		copy(ct[:aes.BlockSize], nonces[i*aes.BlockSize:])
		st.xor(r.block, ct[:aes.BlockSize], ct[aes.BlockSize:], slot)
	}
	return out, nil
}

// EncryptBatch encrypts a column of plaintexts, amortizing nonce generation
// (one bulk random read) and output allocation across the batch. Each
// ciphertext is independently decryptable by Decrypt. It packs the inputs
// and defers to EncryptArena, the single implementation of the batched
// construction.
func (r *Randomized) EncryptBatch(pts [][]byte) ([][]byte, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	arena, bounds := packSlices(pts)
	ct, err := r.EncryptArena(arena, bounds)
	if err != nil {
		return nil, err
	}
	return unpackCiphertexts(ct, bounds), nil
}

// DecryptBatch reverses EncryptBatch (or a column of per-value Encrypt
// results), sharing one output arena across the batch.
func (r *Randomized) DecryptBatch(cts [][]byte) ([][]byte, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	cryptoStats.decryptBatches.Add(1)
	cryptoStats.rndDecrypts.Add(uint64(len(cts)))
	total := 0
	for _, ct := range cts {
		if len(ct) < aes.BlockSize {
			return nil, ErrCiphertext
		}
		total += len(ct) - aes.BlockSize
	}
	arena := make([]byte, total)
	out := make([][]byte, len(cts))
	var st ctrState
	off := 0
	for i, ct := range cts {
		n := len(ct) - aes.BlockSize
		pt := arena[off : off+n : off+n]
		off += n
		st.xor(r.block, ct[:aes.BlockSize], pt, ct[aes.BlockSize:])
		out[i] = pt
	}
	return out, nil
}

// EncryptBatch encrypts a column of plaintexts deterministically,
// bit-identical to per-value Encrypt calls: the synthetic HMAC nonce is
// still computed per plaintext, but one HMAC instance is reset across the
// batch and all ciphertexts share one output arena. It packs the inputs
// and defers to EncryptArena, the single implementation of the batched
// construction.
func (d *Deterministic) EncryptBatch(pts [][]byte) ([][]byte, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	arena, bounds := packSlices(pts)
	ct, err := d.EncryptArena(arena, bounds)
	if err != nil {
		return nil, err
	}
	return unpackCiphertexts(ct, bounds), nil
}

// DecryptBatch reverses EncryptBatch, verifying every synthetic nonce.
func (d *Deterministic) DecryptBatch(cts [][]byte) ([][]byte, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	cryptoStats.decryptBatches.Add(1)
	cryptoStats.detDecrypts.Add(uint64(len(cts)))
	total := 0
	for _, ct := range cts {
		if len(ct) < aes.BlockSize {
			return nil, ErrCiphertext
		}
		total += len(ct) - aes.BlockSize
	}
	arena := make([]byte, total)
	out := make([][]byte, len(cts))
	mac := hmac.New(sha256.New, d.macKey)
	var sum [sha256.Size]byte
	var st ctrState
	off := 0
	for i, ct := range cts {
		n := len(ct) - aes.BlockSize
		pt := arena[off : off+n : off+n]
		off += n
		st.xor(d.block, ct[:aes.BlockSize], pt, ct[aes.BlockSize:])
		mac.Reset()
		mac.Write(pt)
		if !hmac.Equal(mac.Sum(sum[:0])[:aes.BlockSize], ct[:aes.BlockSize]) {
			return nil, ErrCiphertext
		}
		out[i] = pt
	}
	return out, nil
}

// prf16With computes the OPE filler with a caller-owned HMAC instance, so
// batch calls reset one instance instead of re-deriving the key schedule
// per value.
func (o *OPE) prf16With(mac hash.Hash, sum []byte, pt uint64) uint16 {
	mac.Reset()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], pt)
	mac.Write(buf[:])
	s := mac.Sum(sum[:0])
	return binary.BigEndian.Uint16(s[:2])
}

// EncryptBatch maps a column of order-preserving plaintext encodings to
// their ciphertexts, bit-identical to per-value Encrypt calls, sharing one
// HMAC instance and one output arena.
func (o *OPE) EncryptBatch(pts []uint64) [][]byte {
	if len(pts) == 0 {
		return nil
	}
	cryptoStats.encryptBatches.Add(1)
	cryptoStats.opeEncrypts.Add(uint64(len(pts)))
	arena := make([]byte, OPECiphertextSize*len(pts))
	out := make([][]byte, len(pts))
	mac := hmac.New(sha256.New, o.key)
	var sum [sha256.Size]byte
	for i, pt := range pts {
		ct := arena[i*OPECiphertextSize : (i+1)*OPECiphertextSize : (i+1)*OPECiphertextSize]
		binary.BigEndian.PutUint64(ct[:8], pt)
		binary.BigEndian.PutUint16(ct[8:], o.prf16With(mac, sum[:], pt))
		out[i] = ct
	}
	return out
}

// DecryptBatch reverses EncryptBatch, verifying every PRF filler.
func (o *OPE) DecryptBatch(cts [][]byte) ([]uint64, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	cryptoStats.decryptBatches.Add(1)
	cryptoStats.opeDecrypts.Add(uint64(len(cts)))
	out := make([]uint64, len(cts))
	mac := hmac.New(sha256.New, o.key)
	var sum [sha256.Size]byte
	for i, ct := range cts {
		if len(ct) != OPECiphertextSize {
			return nil, ErrCiphertext
		}
		pt := binary.BigEndian.Uint64(ct[:8])
		if binary.BigEndian.Uint16(ct[8:]) != o.prf16With(mac, sum[:], pt) {
			return nil, ErrCiphertext
		}
		out[i] = pt
	}
	return out, nil
}
