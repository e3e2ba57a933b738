package localnet

import (
	"errors"
	"testing"
)

// fakeDevice is a minimal Responder.
type fakeDevice struct {
	name      string
	setup     bool
	silent    bool
	provision []Provisioning
	provErr   error
}

func (f *fakeDevice) LocalName() string { return f.name }

func (f *fakeDevice) Announce() (Announcement, bool) {
	if f.silent {
		return Announcement{}, false
	}
	return Announcement{LocalName: f.name, DeviceID: "id-" + f.name, SetupMode: f.setup}, true
}

func (f *fakeDevice) Provision(p Provisioning) error {
	if f.provErr != nil {
		return f.provErr
	}
	f.provision = append(f.provision, p)
	return nil
}

func TestJoinDiscoverProvision(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	if n.Name() != "home" || n.PublicIP() != "203.0.113.7" {
		t.Fatalf("identity = %q %q", n.Name(), n.PublicIP())
	}
	a := &fakeDevice{name: "plug-a", setup: true}
	b := &fakeDevice{name: "plug-b"}
	if err := n.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(b); err != nil {
		t.Fatal(err)
	}

	anns := n.Discover()
	if len(anns) != 2 {
		t.Fatalf("discovered %d devices, want 2", len(anns))
	}
	if anns[0].LocalName != "plug-a" || anns[1].LocalName != "plug-b" {
		t.Errorf("announcements not sorted: %+v", anns)
	}
	if !anns[0].SetupMode || anns[1].SetupMode {
		t.Errorf("setup flags wrong: %+v", anns)
	}

	p := Provisioning{WiFiSSID: "home", WiFiPassword: "pw", DevToken: "t"}
	if err := n.Provision("plug-a", p); err != nil {
		t.Fatal(err)
	}
	if len(a.provision) != 1 || a.provision[0].DevToken != "t" {
		t.Errorf("provisioning not delivered: %+v", a.provision)
	}
}

func TestJoinDuplicateAndEmptyNames(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	if err := n.Join(&fakeDevice{name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(&fakeDevice{name: "x"}); !errors.Is(err, errDuplicateName) {
		t.Errorf("duplicate join = %v, want errDuplicateName", err)
	}
	if err := n.Join(&fakeDevice{name: ""}); !errors.Is(err, errDuplicateName) {
		t.Errorf("empty-name join = %v, want error", err)
	}
}

func TestProvisionAbsentDevice(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	if err := n.Provision("ghost", Provisioning{}); !errors.Is(err, errNotPresent) {
		t.Errorf("provision absent = %v, want errNotPresent", err)
	}
}

func TestLeave(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	if err := n.Join(&fakeDevice{name: "x"}); err != nil {
		t.Fatal(err)
	}
	n.Leave("x")
	n.Leave("x") // idempotent
	if len(n.Discover()) != 0 {
		t.Error("device still discoverable after Leave")
	}
	if got := n.Members(); len(got) != 0 {
		t.Errorf("Members() = %v", got)
	}
}

func TestSilentDevicesNotDiscovered(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	if err := n.Join(&fakeDevice{name: "quiet", silent: true}); err != nil {
		t.Fatal(err)
	}
	if len(n.Discover()) != 0 {
		t.Error("silent device announced")
	}
	if got := n.Members(); len(got) != 1 || got[0] != "quiet" {
		t.Errorf("Members() = %v", got)
	}
}

func TestProtectedNetworkCredentials(t *testing.T) {
	n := NewProtectedNetwork("home", "203.0.113.7", "home-wifi", "wpa2-passphrase")
	dev := &fakeDevice{name: "plug", setup: true}
	if err := n.Join(dev); err != nil {
		t.Fatal(err)
	}

	// Wrong passphrase: the device never joins.
	err := n.Provision("plug", Provisioning{WiFiSSID: "home-wifi", WiFiPassword: "guessed"})
	if !errors.Is(err, ErrWrongCredentials) {
		t.Fatalf("wrong passphrase = %v, want ErrWrongCredentials", err)
	}
	if len(dev.provision) != 0 {
		t.Fatal("provisioning delivered despite rejected credentials")
	}

	// Wrong SSID: same.
	if err := n.Provision("plug", Provisioning{WiFiSSID: "evil-twin", WiFiPassword: "wpa2-passphrase"}); !errors.Is(err, ErrWrongCredentials) {
		t.Fatalf("wrong ssid = %v, want ErrWrongCredentials", err)
	}

	// Matching credentials pass.
	if err := n.Provision("plug", Provisioning{WiFiSSID: "home-wifi", WiFiPassword: "wpa2-passphrase"}); err != nil {
		t.Fatalf("matching credentials = %v", err)
	}
	// Credential-free deliveries (session tokens) pass regardless.
	if err := n.Provision("plug", Provisioning{SessionToken: "s"}); err != nil {
		t.Fatalf("credential-free delivery = %v", err)
	}
	if len(dev.provision) != 2 {
		t.Errorf("deliveries = %d, want 2", len(dev.provision))
	}
}

// TestProtectedNetworkFullSetup runs the app's standard setup on a
// protected network: the app's defaults match the network, so the flow
// works end to end (covered at the app layer; here we pin the Network
// contract used by it).
func TestProtectedNetworkOpenByDefault(t *testing.T) {
	n := NewNetwork("open", "203.0.113.7")
	dev := &fakeDevice{name: "plug"}
	if err := n.Join(dev); err != nil {
		t.Fatal(err)
	}
	if err := n.Provision("plug", Provisioning{WiFiSSID: "anything", WiFiPassword: "at-all"}); err != nil {
		t.Errorf("open network rejected credentials: %v", err)
	}
}

func TestProvisionErrorPropagates(t *testing.T) {
	n := NewNetwork("home", "203.0.113.7")
	wantErr := errors.New("boom")
	if err := n.Join(&fakeDevice{name: "x", provErr: wantErr}); err != nil {
		t.Fatal(err)
	}
	if err := n.Provision("x", Provisioning{}); !errors.Is(err, wantErr) {
		t.Errorf("Provision error = %v, want boom", err)
	}
}

// TestWritesMoveOnEveryMembershipChange: a caller that copied a network
// skips copying it back while Writes reads the same, so every change to
// the members must move the count; a refused Join and a Provision leave
// it.
func TestWritesMoveOnEveryMembershipChange(t *testing.T) {
	n, other := NewNetwork("home", "203.0.113.7"), NewNetwork("home", "203.0.113.7")
	steps := []struct {
		name  string
		do    func()
		moves bool
	}{
		{"join", func() { _ = n.Join(&fakeDevice{name: "x"}) }, true},
		{"join a taken name", func() { _ = n.Join(&fakeDevice{name: "x"}) }, false},
		{"provision", func() { _ = n.Provision("x", Provisioning{}) }, false},
		{"leave", func() { n.Leave("x") }, true},
		{"join", func() { _ = n.Join(&fakeDevice{name: "y"}) }, true},
		{"copy", func() { n.CopyFrom(other) }, true},
		{"join", func() { _ = n.Join(&fakeDevice{name: "z"}) }, true},
		{"reset", func() { n.Reset() }, true},
	}
	for _, s := range steps {
		before := n.Writes()
		s.do()
		if moved := n.Writes() != before; moved != s.moves {
			t.Errorf("%s: count moved %v, want %v", s.name, moved, s.moves)
		}
	}
}
