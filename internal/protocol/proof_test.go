package protocol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// stdlibHmacHex is the oracle: HMAC-SHA256 as crypto/hmac computes it,
// which is how hmacHex itself was written before it was spelled out.
func stdlibHmacHex(secret, message string) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write([]byte(message))
	return hex.EncodeToString(mac.Sum(nil))
}

// patterned returns n bytes that differ position to position, so a
// misplaced or dropped byte changes the digest.
func patterned(n int, salt byte) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return string(b)
}

// TestHmacHexMatchesStdlib holds hmacHex to RFC 2104 on both sides of
// every length its implementation branches on: the block size (a longer
// key is hashed first) and the stack buffer (a longer message spills).
func TestHmacHexMatchesStdlib(t *testing.T) {
	room := hmacStack - sha256.BlockSize
	for _, keyLen := range []int{0, 1, 63, 64, 65, 300} {
		for _, msgLen := range []int{0, 11, room - 1, room, room + 1, 4096} {
			key, msg := patterned(keyLen, 0xa5), patterned(msgLen, 0x3c)
			if got, want := hmacHex(key, msg), stdlibHmacHex(key, msg); got != want {
				t.Errorf("key %d bytes, message %d bytes: %s, crypto/hmac says %s", keyLen, msgLen, got, want)
			}
			// The message may arrive in parts; the MAC is of their
			// concatenation.
			if msgLen > 1 {
				if got, want := hmacHex(key, msg[:1], "", msg[1:]), stdlibHmacHex(key, msg); got != want {
					t.Errorf("key %d bytes, message %d bytes in parts: %s, crypto/hmac says %s", keyLen, msgLen, got, want)
				}
			}
		}
	}
}

func FuzzHmacHex(f *testing.F) {
	f.Add("factory-secret-AA:BB:CC:00:10:01", "pairing:AA:BB:CC:00:10:01")
	f.Add("", "")
	f.Add(strings.Repeat("k", 65), strings.Repeat("m", hmacStack))
	f.Fuzz(func(t *testing.T, key, msg string) {
		want := stdlibHmacHex(key, msg)
		if got := hmacHex(key, msg); got != want {
			t.Fatalf("hmacHex(%q, %q) = %s, crypto/hmac says %s", key, msg, got, want)
		}
		if got := hmacHex(key, msg[:len(msg)/2], msg[len(msg)/2:]); got != want {
			t.Fatalf("hmacHex(%q, %q) in two parts = %s, crypto/hmac says %s", key, msg, got, want)
		}
	})
}

// TestProofBytesPinned pins the credentials themselves (values recorded
// before hmacHex was rewritten): a device provisioned by an older build
// must still verify.
func TestProofBytesPinned(t *testing.T) {
	const secret, dev = "factory-secret-AA:BB:CC:00:10:01", "AA:BB:CC:00:10:01"
	for _, c := range []struct{ name, got, want string }{
		{"PairingProof", PairingProof(secret, dev), "a45a0e3ef865519eed08bcd7e1498d624605debd1920386470ea8d0c7f718e31"},
		{"StatusSignature/register", StatusSignature(secret, dev, StatusRegister), "ffb2aa910ed5ce326f758fa4e8c75df1b4c47f5b03063c52f7adfb3b430f6818"},
		{"StatusSignature/heartbeat", StatusSignature(secret, dev, StatusHeartbeat), "375c7c5c83b614cf66468b6f61bb765142edd90768cc8fdc6db2e317d0690669"},
		{"StatusSignature/unknown", StatusSignature(secret, dev, StatusKind(0)), "cc467357a4248c8158908b24843610cbebf07b53926a5352160fc731b9761688"},
		{"DataProof", DataProof(secret, "00112233445566778899aabbccddeeff"), "bcb0bd593fa9b5ca975c7775ecdfa00f0cd571c8294912f1c4bc9cf33ac52c10"},
		{"BindProof", BindProof(secret, "ffeeddccbbaa99887766554433221100"), "79b57335099454b3e59865fd6ddf2cd63039dc83a3eb2ae021cc66d9aa83c917"},
		{"PairingProof/empty", PairingProof("", ""), "e8abd94f33d419563213893aeeada987195b89bbe68c885c0df25367d59e53e5"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestHmacHexAllocatesOnlyItsResult: the 64-character string is the one
// thing a proof keeps, whichever helper derives it.
func TestHmacHexAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const secret, dev = "factory-secret-AA:BB:CC:00:10:01", "AA:BB:CC:00:10:01"
	nonce := patterned(32, 0)
	var sink string
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"hmacHex", func() { sink = hmacHex(secret, "pairing:", dev) }},
		{"PairingProof", func() { sink = PairingProof(secret, dev) }},
		{"StatusSignature", func() { sink = StatusSignature(secret, dev, StatusHeartbeat) }},
		{"DataProof", func() { sink = DataProof(secret, nonce) }},
		{"BindProof", func() { sink = BindProof(secret, nonce) }},
	} {
		if n := testing.AllocsPerRun(200, c.f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, n)
		}
	}
	_ = sink
}

// TestProofChecksAllocateNothing: the cloud's side of each proof computes
// the expected one on the stack, so a check allocates nothing, whether it
// passes or fails.
func TestProofChecksAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const secret, dev = "factory-secret-AA:BB:CC:00:10:01", "AA:BB:CC:00:10:01"
	nonce := patterned(32, 0)
	pairing, status := PairingProof(secret, dev), StatusSignature(secret, dev, StatusHeartbeat)
	data, bind := DataProof(secret, nonce), BindProof(secret, nonce)
	var ok bool
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"VerifyPairingProof", func() { ok = VerifyPairingProof(pairing, secret, dev) }},
		{"VerifyStatusSignature", func() { ok = VerifyStatusSignature(status, secret, dev, StatusHeartbeat) }},
		{"VerifyDataProof", func() { ok = VerifyDataProof(data, secret, nonce) }},
		{"VerifyBindProof", func() { ok = VerifyBindProof(bind, secret, nonce) }},
		{"VerifyBindProof/forged", func() { ok = !VerifyBindProof("forged-proof", secret, nonce) }},
	} {
		if n := testing.AllocsPerRun(200, c.f); n != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, n)
		}
		if !ok {
			t.Errorf("%s: wrong verdict", c.name)
		}
	}
}
