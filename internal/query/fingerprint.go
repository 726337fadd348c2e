package query

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint identifies a query body for plan cache lookups: the SHA-256 of
// the raw body bytes. Bodies propagate verbatim between sites (a Deref
// carries the originator's exact text), so hashing the bytes — rather than a
// normalized AST — is stable across every hop without parsing anything.
type Fingerprint [sha256.Size]byte

// FingerprintOf returns the fingerprint of a query body.
func FingerprintOf(body string) Fingerprint {
	return sha256.Sum256([]byte(body))
}

// FingerprintFromBytes reconstructs a fingerprint carried on the wire. It
// reports false when b is not exactly sha256.Size bytes (a legacy frame with
// no hash, or a corrupt one — the caller falls back to hashing the body).
func FingerprintFromBytes(b []byte) (Fingerprint, bool) {
	var f Fingerprint
	if len(b) != len(f) {
		return f, false
	}
	copy(f[:], b)
	return f, true
}

// Prefix returns the first 8 bytes as a map key. Cache lookups bucket by this
// truncation for cheap hashing; a hit is only trusted after the full
// fingerprint (and the body itself) compare equal.
func (f Fingerprint) Prefix() uint64 {
	return binary.BigEndian.Uint64(f[:8])
}

// Bytes returns the fingerprint as a byte slice for the wire.
func (f Fingerprint) Bytes() []byte { return f[:] }

// String renders a short hex form for diagnostics.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }
