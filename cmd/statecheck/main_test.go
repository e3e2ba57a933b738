package main

import (
	"io"
	"os"
	"strings"
	"testing"

	iotbind "github.com/iotbind/iotbind"
)

func TestLookupProfile(t *testing.T) {
	tests := []struct {
		name     string
		wantName string
		wantErr  bool
	}{
		{"secure", "reference-capability", false},
		{"recommended", "reference-devtoken", false},
		{"worst-case", "reference-worst", false},
		{"TP-LINK", "tplink-lb", false},
		{"Belkin", "belkin-wemo", false},
		{"NoSuchVendor", "", true},
	}
	for _, tt := range tests {
		p, err := lookupProfile(tt.name)
		if tt.wantErr {
			if err == nil {
				t.Errorf("lookupProfile(%q) succeeded, want error", tt.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("lookupProfile(%q): %v", tt.name, err)
			continue
		}
		if p.Design.Name != tt.wantName {
			t.Errorf("lookupProfile(%q).Design.Name = %q, want %q", tt.name, p.Design.Name, tt.wantName)
		}
	}
}

func TestRunModes(t *testing.T) {
	// Every mode must execute cleanly and refuse an unknown profile.
	if err := run(io.Discard, "", "", "", "", "", 2); err != nil {
		t.Errorf("run(default): %v", err)
	}
	if err := run(io.Discard, "D-LINK", "", "", "", "", 2); err != nil {
		t.Errorf("run(analyze): %v", err)
	}
	if err := run(io.Discard, "", "E-Link Smart", "", "", "", 1); err != nil {
		t.Errorf("run(discover): %v", err)
	}
	if err := run(io.Discard, "", "", "TP-LINK", "", "", 1); err != nil {
		t.Errorf("run(formal): %v", err)
	}
	if err := run(io.Discard, "ghost", "", "", "", "", 2); err == nil {
		t.Error("run(analyze ghost) succeeded")
	}
	if err := run(io.Discard, "", "ghost", "", "", "", 1); err == nil {
		t.Error("run(discover ghost) succeeded")
	}
	if err := run(io.Discard, "", "", "ghost", "", "", 1); err == nil {
		t.Error("run(formal ghost) succeeded")
	}
	if err := run(io.Discard, "", "", "", "Belkin", "", 1); err != nil {
		t.Errorf("run(harden): %v", err)
	}
	if err := run(io.Discard, "", "", "", "ghost", "", 1); err == nil {
		t.Error("run(harden ghost) succeeded")
	}
	if err := run(io.Discard, "", "", "", "", "worst-case", 1); err != nil {
		t.Errorf("run(delegation): %v", err)
	}
	if err := run(io.Discard, "", "", "", "", "secure", 1); err != nil {
		t.Errorf("run(delegation secure): %v", err)
	}
	if err := run(io.Discard, "", "", "", "", "ghost", 1); err == nil {
		t.Error("run(delegation ghost) succeeded")
	}
}

// TestGoldens pins what -formal prints for each of the ten vendors and
// what -delegation prints for both reference postures — every verdict,
// state count and trace — to the text the commit before the model checker
// packed its states printed (testdata/*.golden). To re-record after a
// deliberate change, replace a file with the text the test logs.
func TestGoldens(t *testing.T) {
	var formal strings.Builder
	for _, p := range iotbind.Profiles() {
		if err := run(&formal, "", "", p.Vendor, "", "", 2); err != nil {
			t.Fatalf("-formal %s: %v", p.Vendor, err)
		}
	}
	matchGolden(t, "testdata/formal.golden", formal.String())
	for _, posture := range []string{"worst-case", "secure"} {
		var b strings.Builder
		if err := run(&b, "", "", "", "", posture, 2); err != nil {
			t.Fatalf("-delegation %s: %v", posture, err)
		}
		matchGolden(t, "testdata/delegation-"+posture+".golden", b.String())
	}
}

func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs; got:\n%s", path, got)
	}
}
