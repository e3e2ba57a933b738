package protocol

import (
	"fmt"
	"testing"
)

func TestWireCodeRoundTrip(t *testing.T) {
	for _, pair := range wireCodes {
		code, ok := WireCode(pair.err)
		if !ok || code != pair.code {
			t.Errorf("WireCode(%v) = %q, %v; want %q", pair.err, code, ok, pair.code)
		}
		// Wrapped errors still map.
		wrapped := fmt.Errorf("cloud: something: %w", pair.err)
		code, ok = WireCode(wrapped)
		if !ok || code != pair.code {
			t.Errorf("WireCode(wrapped %v) = %q, %v", pair.err, code, ok)
		}
		sentinel, ok := FromWireCode(pair.code)
		if !ok || sentinel != pair.err {
			t.Errorf("FromWireCode(%q) = %v, %v", pair.code, sentinel, ok)
		}
	}
}

func TestWireCodeUnknown(t *testing.T) {
	if _, ok := WireCode(fmt.Errorf("some other error")); ok {
		t.Error("non-protocol error mapped to a code")
	}
	if _, ok := FromWireCode("no_such_code"); ok {
		t.Error("unknown code mapped to an error")
	}
	if _, ok := WireCode(nil); ok {
		t.Error("nil error mapped to a code")
	}
}

func TestWireCodesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, pair := range wireCodes {
		if seen[pair.code] {
			t.Errorf("duplicate wire code %q", pair.code)
		}
		seen[pair.code] = true
	}
	if len(seen) != 12 {
		t.Errorf("have %d wire codes, want 12", len(seen))
	}
}
