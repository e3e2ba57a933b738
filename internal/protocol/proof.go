package protocol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
)

// The proof helpers below derive the HMAC credentials used where the
// emulation needs "something only the real firmware can compute": the
// per-device factory secret plays the role of the provisioned key material
// (the private key of public-key designs, the session crypto of opaque
// device protocols, the pairing code revealed over the local network).

// PairingProof derives the local-pairing proof a device in setup mode
// reveals over the LAN. The app forwards it when requesting a dynamic
// device token, demonstrating local possession of the device.
func PairingProof(factorySecret, deviceID string) string {
	return hmacHex(factorySecret, "pairing:", deviceID)
}

// StatusSignature derives the per-message signature of public-key designs
// (AWS IoT style): an HMAC over the device ID and message kind.
func StatusSignature(factorySecret, deviceID string, kind StatusKind) string {
	return hmacHex(factorySecret, "status:", deviceID, ":", kind.String())
}

// DataProof derives the in-session data proof of DataRequiresSession
// designs from the register-time session nonce.
func DataProof(factorySecret, sessionNonce string) string {
	return hmacHex(factorySecret, "data:", sessionNonce)
}

// BindProof derives the capability-binding submission proof: it ties a
// bind token to the real device holding the factory secret.
func BindProof(factorySecret, bindToken string) string {
	return hmacHex(factorySecret, "bind:", bindToken)
}

// VerifyProof compares a received proof with the expected value in
// constant time.
func VerifyProof(got, want string) bool {
	return hmac.Equal([]byte(got), []byte(want))
}

// hmacStack is the stack room hmacHex gives the inner hash's input: one
// key block and the message. Every proof above fits (the longest message
// is under 50 bytes); a longer one spills to the heap.
const hmacStack = 192

// hmacHex returns HMAC-SHA256(secret, message parts concatenated) as
// lowercase hex. RFC 2104 is spelled out — H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖
// message)), a key longer than a block hashed first — instead of going
// through crypto/hmac, because a device re-derives its pairing proof on
// every discovery and the cloud re-derives one per verification: hmac.New
// builds two digests, two pads and a key copy behind an interface (ten
// allocations with the hex), where the two one-shot sha256.Sum256 calls
// here run on the caller's stack and only the returned string is kept.
// TestHmacHexMatchesStdlib and FuzzHmacHex hold the bytes to crypto/hmac.
func hmacHex(secret string, message ...string) string {
	var stack [hmacStack]byte
	var key [sha256.BlockSize]byte
	if len(secret) > sha256.BlockSize {
		sum := sha256.Sum256(append(stack[:0], secret...))
		copy(key[:], sum[:])
	} else {
		copy(key[:], secret)
	}
	in := stack[:sha256.BlockSize]
	var out [sha256.BlockSize + sha256.Size]byte
	for i, k := range key {
		in[i], out[i] = k^0x36, k^0x5c
	}
	for _, m := range message {
		in = append(in, m...)
	}
	inner := sha256.Sum256(in)
	copy(out[sha256.BlockSize:], inner[:])
	mac := sha256.Sum256(out[:])
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], mac[:])
	return string(text[:])
}
