package dispatch

import (
	"bytes"
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"mpq/internal/authz"
)

// The communication to each subject is [[q_S, keys]_privU]_pubS (Figure 8):
// the sub-query and key material signed with the user's private key (so the
// recipient can verify authenticity and integrity) and encrypted with the
// recipient's public key (confidentiality of the communication).

// Identity is a subject's key pair for dispatch communications.
type Identity struct {
	Subject authz.Subject
	Private *rsa.PrivateKey
}

// NewIdentity generates a key pair for a subject. bits of 2048 is standard;
// tests may use 1024 for speed.
func NewIdentity(subject authz.Subject, bits int) (*Identity, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return &Identity{Subject: subject, Private: key}, nil
}

// Public returns the identity's public key.
func (id *Identity) Public() *rsa.PublicKey { return &id.Private.PublicKey }

// Request is the payload dispatched to one subject: the sub-query it must
// execute, the identifiers of the fragments it consumes, and the key
// material it needs. KeyBlobs carries serialized key rings (the crypto
// package's master keys / Paillier parts), opaque to this layer.
type Request struct {
	From     authz.Subject
	To       authz.Subject
	Fragment string
	SQL      string
	Inputs   []string
	KeyIDs   []string
	KeyBlobs map[string][]byte
}

// Envelope is a sealed request: an RSA-OAEP-wrapped session key, an
// AES-GCM-encrypted payload, and an RSA-PSS signature by the sender over
// the plaintext payload.
type Envelope struct {
	To         authz.Subject
	WrappedKey []byte
	Nonce      []byte
	Ciphertext []byte
	Signature  []byte
}

// ErrEnvelope reports a malformed or tampered envelope.
var ErrEnvelope = errors.New("dispatch: invalid envelope")

// Seal signs the request with the sender's private key and encrypts it for
// the recipient.
func Seal(req *Request, sender *Identity, recipient *rsa.PublicKey) (*Envelope, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(req); err != nil {
		return nil, fmt.Errorf("dispatch: encoding request: %w", err)
	}
	digest := sha256.Sum256(payload.Bytes())
	sig, err := rsa.SignPSS(rand.Reader, sender.Private, crypto.SHA256, digest[:], nil)
	if err != nil {
		return nil, fmt.Errorf("dispatch: signing: %w", err)
	}

	session := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, session); err != nil {
		return nil, err
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, recipient, session, []byte("mpq/dispatch"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: wrapping session key: %w", err)
	}
	block, err := aes.NewCipher(session)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	ct := gcm.Seal(nil, nonce, payload.Bytes(), nil)
	return &Envelope{To: req.To, WrappedKey: wrapped, Nonce: nonce, Ciphertext: ct, Signature: sig}, nil
}

// Open decrypts an envelope with the recipient's private key and verifies
// the sender's signature.
func Open(env *Envelope, recipient *Identity, sender *rsa.PublicKey) (*Request, error) {
	session, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, recipient.Private, env.WrappedKey, []byte("mpq/dispatch"))
	if err != nil {
		return nil, fmt.Errorf("%w: session unwrap failed", ErrEnvelope)
	}
	block, err := aes.NewCipher(session)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	payload, err := gcm.Open(nil, env.Nonce, env.Ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: payload decryption failed", ErrEnvelope)
	}
	digest := sha256.Sum256(payload)
	if err := rsa.VerifyPSS(sender, crypto.SHA256, digest[:], env.Signature, nil); err != nil {
		return nil, fmt.Errorf("%w: signature verification failed", ErrEnvelope)
	}
	var req Request
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: payload decoding failed", ErrEnvelope)
	}
	return &req, nil
}

// SealDispatch seals one request per fragment of the dispatch, signed by
// the user and encrypted for each executing subject. keyBlobs maps key ids
// to serialized key material included for the fragments that need them.
func SealDispatch(d *Dispatch, user *Identity, recipients map[authz.Subject]*rsa.PublicKey,
	keyBlobs map[string][]byte) (map[string]*Envelope, error) {
	out := make(map[string]*Envelope, len(d.Fragments))
	for _, f := range d.Fragments {
		pub, ok := recipients[f.Subject]
		if !ok {
			return nil, fmt.Errorf("dispatch: no public key for subject %s", f.Subject)
		}
		req := &Request{
			From:     user.Subject,
			To:       f.Subject,
			Fragment: f.ID,
			SQL:      f.SQL(),
			KeyIDs:   f.KeyIDs,
			KeyBlobs: make(map[string][]byte),
		}
		for _, in := range f.Inputs {
			req.Inputs = append(req.Inputs, in.ID)
		}
		for _, id := range f.KeyIDs {
			if blob, ok := keyBlobs[id]; ok {
				req.KeyBlobs[id] = blob
			}
		}
		env, err := Seal(req, user, pub)
		if err != nil {
			return nil, err
		}
		out[f.ID] = env
	}
	return out, nil
}
