package protocol

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"

	"github.com/iotbind/iotbind/internal/core"
)

func TestStatusKindString(t *testing.T) {
	if StatusRegister.String() != "register" || StatusHeartbeat.String() != "heartbeat" {
		t.Error("status kind strings wrong")
	}
	if StatusKind(0).String() != "unknown" {
		t.Error("zero status kind should be unknown")
	}
}

func TestStatusRequestJSONRoundTrip(t *testing.T) {
	req := StatusRequest{
		Kind:     StatusHeartbeat,
		DeviceID: "AA:BB:CC:00:00:01",
		DevToken: "tok",
		Readings: []Reading{{Name: "power_w", Value: 12.5, At: time.Unix(1000, 0).UTC()}},
		SourceIP: "203.0.113.7",
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got StatusRequest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.DeviceID != req.DeviceID || got.DevToken != req.DevToken || len(got.Readings) != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.SourceIP != "" {
		t.Error("SourceIP must not travel in the JSON body (transport-assigned)")
	}
}

func TestBindRequestJSONRoundTrip(t *testing.T) {
	req := BindRequest{
		DeviceID:  "dev-1",
		UserToken: "ut",
		Sender:    core.SenderApp,
		SourceIP:  "198.51.100.66",
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got BindRequest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.DeviceID != "dev-1" || got.UserToken != "ut" || got.Sender != core.SenderApp {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.SourceIP != "" {
		t.Error("SourceIP must not travel in the JSON body")
	}
}

func TestProofsAreDeterministicAndDistinct(t *testing.T) {
	const secret, devID = "factory-secret", "dev-1"
	p1 := PairingProof(secret, devID)
	p2 := PairingProof(secret, devID)
	if p1 != p2 {
		t.Error("PairingProof not deterministic")
	}
	if PairingProof("other", devID) == p1 {
		t.Error("PairingProof ignores secret")
	}
	if PairingProof(secret, "dev-2") == p1 {
		t.Error("PairingProof ignores device ID")
	}
	all := map[string]string{
		"pairing": PairingProof(secret, devID),
		"sig-reg": StatusSignature(secret, devID, StatusRegister),
		"sig-hb":  StatusSignature(secret, devID, StatusHeartbeat),
		"data":    DataProof(secret, "nonce"),
		"bind":    BindProof(secret, "token"),
	}
	seen := make(map[string]string, len(all))
	for name, proof := range all {
		if len(proof) != 64 {
			t.Errorf("%s proof length %d, want 64 hex chars", name, len(proof))
		}
		if prev, dup := seen[proof]; dup {
			t.Errorf("proof collision between %s and %s", name, prev)
		}
		seen[proof] = name
	}
}

func TestVerifyProof(t *testing.T) {
	const secret, dev, nonce = "s", "AA:BB", "n"
	for _, c := range []struct {
		name   string
		proof  string
		verify func(got string) bool
	}{
		{"pairing", PairingProof(secret, dev), func(got string) bool { return VerifyPairingProof(got, secret, dev) }},
		{"status", StatusSignature(secret, dev, StatusHeartbeat), func(got string) bool {
			return VerifyStatusSignature(got, secret, dev, StatusHeartbeat)
		}},
		{"data", DataProof(secret, nonce), func(got string) bool { return VerifyDataProof(got, secret, nonce) }},
		{"bind", BindProof(secret, nonce), func(got string) bool { return VerifyBindProof(got, secret, nonce) }},
	} {
		if !c.verify(c.proof) {
			t.Errorf("%s: the derived proof does not verify", c.name)
		}
		if c.verify(DataProof(secret, "m")) {
			t.Errorf("%s: a different proof verifies", c.name)
		}
		if c.verify("") || c.verify(c.proof[:len(c.proof)-1]) || c.verify(c.proof+"0") {
			t.Errorf("%s: a proof of another length verifies", c.name)
		}
		last := c.proof[len(c.proof)-1] ^ 1
		if c.verify(c.proof[:len(c.proof)-1] + string(last)) {
			t.Errorf("%s: a proof one bit off verifies", c.name)
		}
	}
	if VerifyStatusSignature(StatusSignature(secret, dev, StatusRegister), secret, dev, StatusHeartbeat) {
		t.Error("a register signature verifies as a heartbeat's")
	}
}

// TestProofForgeryResistance is a property test: proofs computed under a
// different secret never verify.
func TestProofForgeryResistance(t *testing.T) {
	f := func(secret, forged, devID string) bool {
		if secret == forged {
			return true
		}
		return !VerifyPairingProof(PairingProof(forged, devID), secret, devID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestErrorVocabularyDistinct(t *testing.T) {
	errs := []error{
		ErrAuthFailed, ErrUnknownDevice, ErrAlreadyBound, ErrNotBound,
		ErrNotPermitted, ErrUnsupported, ErrOutsideWindow, ErrDeviceOffline,
		ErrBadRequest, ErrUserExists,
	}
	seen := make(map[string]bool, len(errs))
	for _, err := range errs {
		if err == nil || err.Error() == "" {
			t.Fatal("nil or empty error in vocabulary")
		}
		if seen[err.Error()] {
			t.Errorf("duplicate error message %q", err.Error())
		}
		seen[err.Error()] = true
	}
}
