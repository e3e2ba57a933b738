package token

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestIssueAndVerify(t *testing.T) {
	iss := NewIssuer()
	tok, err := iss.Issue(KindUser, "alice", "alice", 0)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if tok.Value == "" || len(tok.Value) != 32 {
		t.Fatalf("token value %q, want 32 hex chars", tok.Value)
	}
	got, err := iss.Verify(KindUser, tok.Value)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got.Owner != "alice" || got.Subject != "alice" || got.Kind != KindUser {
		t.Errorf("Verify returned %+v", got)
	}
}

func TestVerifyUnknown(t *testing.T) {
	iss := NewIssuer()
	if _, err := iss.Verify(KindUser, "no-such-token"); !errors.Is(err, errUnknownToken) {
		t.Errorf("Verify(unknown) = %v, want errUnknownToken", err)
	}
}

func TestVerifyWrongKind(t *testing.T) {
	iss := NewIssuer()
	tok, err := iss.Issue(KindDevice, "alice", "dev-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(KindUser, tok.Value); !errors.Is(err, errWrongKind) {
		t.Errorf("Verify(wrong kind) = %v, want errWrongKind", err)
	}
}

func TestVerifyExpired(t *testing.T) {
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	clock := now
	iss := NewIssuer(WithClock(func() time.Time { return clock }))
	tok, err := iss.Issue(KindUser, "alice", "alice", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(KindUser, tok.Value); err != nil {
		t.Fatalf("Verify before expiry: %v", err)
	}
	clock = now.Add(2 * time.Minute)
	if _, err := iss.Verify(KindUser, tok.Value); !errors.Is(err, errExpired) {
		t.Errorf("Verify after expiry = %v, want errExpired", err)
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	iss := NewIssuer(WithClock(fixedClock(now.Add(1000 * time.Hour))))
	tok := Token{Value: "x", ExpiresAt: time.Time{}}
	if tok.Expired(now.Add(1000 * time.Hour)) {
		t.Error("token with zero expiry reported expired")
	}
	issued, err := iss.Issue(KindUser, "alice", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(KindUser, issued.Value); err != nil {
		t.Errorf("Verify with zero ttl far in future: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	iss := NewIssuer()
	tok, err := iss.Issue(KindUser, "alice", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	iss.Revoke(tok.Value)
	if _, err := iss.Verify(KindUser, tok.Value); !errors.Is(err, errUnknownToken) {
		t.Errorf("Verify(revoked) = %v, want errUnknownToken", err)
	}
	iss.Revoke("never-issued") // must not panic
}

func TestRevokeSubject(t *testing.T) {
	iss := NewIssuer()
	for i := 0; i < 3; i++ {
		if _, err := iss.Issue(KindSession, "alice", "dev-1", 0); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := iss.Issue(KindSession, "alice", "dev-2", 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := iss.Issue(KindDevice, "alice", "dev-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := iss.RevokeSubject(KindSession, "dev-1"); n != 3 {
		t.Errorf("RevokeSubject revoked %d, want 3", n)
	}
	if _, err := iss.Verify(KindSession, keep.Value); err != nil {
		t.Errorf("unrelated subject revoked: %v", err)
	}
	if _, err := iss.Verify(KindDevice, other.Value); err != nil {
		t.Errorf("unrelated kind revoked: %v", err)
	}
}

func TestTokenValuesAreUnique(t *testing.T) {
	iss := NewIssuer()
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		tok, err := iss.Issue(KindUser, "alice", "alice", 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok.Value] {
			t.Fatalf("duplicate token value after %d issues", i)
		}
		seen[tok.Value] = true
	}
}

func TestDeterministicRandom(t *testing.T) {
	counter := byte(0)
	read := func(b []byte) error {
		for i := range b {
			b[i] = counter
		}
		counter++
		return nil
	}
	iss := NewIssuer(WithRandom(read))
	t1, err := iss.Issue(KindUser, "a", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := iss.Issue(KindUser, "a", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Value == t2.Value {
		t.Error("collision not retried")
	}
	if t1.Value != "00000000000000000000000000000000" {
		t.Errorf("deterministic value = %q", t1.Value)
	}
}

func TestCollisionRetryExhaustion(t *testing.T) {
	read := func(b []byte) error {
		for i := range b {
			b[i] = 7
		}
		return nil
	}
	iss := NewIssuer(WithRandom(read))
	if _, err := iss.Issue(KindUser, "a", "a", 0); err != nil {
		t.Fatalf("first issue: %v", err)
	}
	if _, err := iss.Issue(KindUser, "a", "a", 0); err == nil {
		t.Fatal("second issue with constant entropy succeeded, want collision error")
	}
}

func TestEntropyFailure(t *testing.T) {
	read := func(b []byte) error { return errors.New("no entropy") }
	iss := NewIssuer(WithRandom(read))
	if _, err := iss.Issue(KindUser, "a", "a", 0); err == nil {
		t.Fatal("Issue with failing entropy succeeded")
	}
}

func TestConcurrentIssueVerify(t *testing.T) {
	iss := NewIssuer()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tok, err := iss.Issue(KindBind, "alice", "dev", 0)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := iss.Verify(KindBind, tok.Value); err != nil {
					errCh <- err
					return
				}
				iss.Revoke(tok.Value)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if iss.Len() != 0 {
		t.Errorf("issuer retains %d tokens after revoking all", iss.Len())
	}
}

// TestVerifyOnlyAcceptsExactValue is a property test: no perturbation of an
// issued token verifies.
func TestVerifyOnlyAcceptsExactValue(t *testing.T) {
	iss := NewIssuer()
	tok, err := iss.Issue(KindUser, "alice", "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint8, delta byte) bool {
		if delta == 0 {
			return true
		}
		b := []byte(tok.Value)
		b[int(pos)%len(b)] ^= delta
		mutated := string(b)
		if mutated == tok.Value {
			return true
		}
		_, err := iss.Verify(KindUser, mutated)
		return errors.Is(err, errUnknownToken)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindUser:    "UserToken",
		KindDevice:  "DevToken",
		KindBind:    "BindToken",
		KindSession: "SessionToken",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestFreshValueIsHexOfEntropy: a token's value is the lowercase hex of
// exactly the 16 bytes the entropy source supplied — 128 bits, nothing
// derived, nothing truncated — and a draw that collides with a live
// token is drawn again before anything is issued.
func TestFreshValueIsHexOfEntropy(t *testing.T) {
	draws := [][16]byte{
		{0x00, 0x01, 0x7f, 0x80, 0xab, 0xcd, 0xef, 0xff, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe},
		{0x00, 0x01, 0x7f, 0x80, 0xab, 0xcd, 0xef, 0xff, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe}, // collides
		{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef},
	}
	var reads int
	iss := NewIssuer(WithRandom(func(b []byte) error {
		if len(b) != 16 {
			t.Errorf("entropy read of %d bytes, want 16", len(b))
		}
		copy(b, draws[reads][:])
		reads++
		return nil
	}))
	first, err := iss.Issue(KindUser, "a", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "00017f80abcdefff1032547698badcfe"; first.Value != want {
		t.Errorf("first value %q, want %q", first.Value, want)
	}
	second, err := iss.Issue(KindBind, "a", "dev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "deadbeefdeadbeefdeadbeefdeadbeef"; second.Value != want {
		t.Errorf("second value %q, want %q (the colliding draw re-drawn)", second.Value, want)
	}
	if reads != 3 {
		t.Errorf("%d entropy reads for two tokens with one collision, want 3", reads)
	}
	if got, err := iss.Verify(KindUser, first.Value); err != nil || got.Kind != KindUser {
		t.Errorf("the first token after the collision: %+v, %v", got, err)
	}
}
