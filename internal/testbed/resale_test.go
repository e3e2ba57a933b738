package testbed

import (
	"errors"
	"testing"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/vendors"
)

// The adversary model grounds device-ID leakage in ownership transfer:
// "device reuse, reselling, stealing" (Section III-A). These tests run
// the resale lifecycle — first owner uses the device, factory-resets it,
// sells it; the second owner sets it up in a different home — and pin
// what each design family does about the previous binding.

// resale moves the testbed's device into a buyer's home and returns the
// buyer's app.
func resale(t *testing.T, tb *Testbed, design core.DesignSpec) (*app.App, *device.Device) {
	t.Helper()
	// The seller factory-resets before shipping.
	tb.VictimDevice().Reset()

	// The buyer's home is a different network with a different address.
	buyerHome := localnet.NewNetwork("buyer-home", "192.0.2.20")
	buyerTransport := transport.StampSource(tb.Cloud(), buyerHome.PublicIP())

	// The physical device moves: same identity, new radio environment.
	dev, err := device.New(device.Config{
		ID:            tb.DeviceID(),
		FactorySecret: "factory-secret-" + tb.DeviceID(),
		LocalName:     "bought-device",
		Model:         design.Name,
	}, design, buyerTransport)
	if err != nil {
		t.Fatal(err)
	}
	if err := buyerHome.Join(dev); err != nil {
		t.Fatal(err)
	}

	buyer, err := app.New("buyer@example.com", "pw-buyer", design, buyerTransport, buyerHome)
	if err != nil {
		t.Fatal(err)
	}
	if err := buyer.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := buyer.Login(); err != nil {
		t.Fatal(err)
	}
	return buyer, dev
}

type buyerActions struct{ dev *device.Device }

func (a buyerActions) PressButton(string) error { return a.dev.PressButton() }
func (a buyerActions) ResetDevice(string) error { a.dev.Reset(); return nil }

// TestResaleCleanHandover: when the seller removes the device from their
// account before selling, every design lets the buyer bind.
func TestResaleCleanHandover(t *testing.T) {
	for _, name := range []string{"Belkin", "TP-LINK", "D-LINK"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, _ := vendors.ByVendor(name)
			tb, err := New(p.Design)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.SetupVictim(); err != nil {
				t.Fatal(err)
			}
			// Seller removes the device properly.
			if err := tb.VictimApp().Unbind(tb.DeviceID()); err != nil {
				t.Fatal(err)
			}

			buyer, dev := resale(t, tb, p.Design)
			if err := buyer.SetupDevice("bought-device", buyerActions{dev: dev}); err != nil {
				t.Fatalf("buyer setup after clean handover: %v", err)
			}
			st, err := tb.Shadow()
			if err != nil {
				t.Fatal(err)
			}
			if st.BoundUser != "buyer@example.com" {
				t.Errorf("bound to %q, want the buyer", st.BoundUser)
			}
		})
	}
}

// TestResaleStaleBinding: when the seller forgets to unbind, the outcome
// depends on the design — the "used device" problem the loose coupling of
// physical possession and cloud state creates.
func TestResaleStaleBinding(t *testing.T) {
	t.Run("reset-notify design self-heals (TP-LINK)", func(t *testing.T) {
		p, _ := vendors.ByVendor("TP-LINK")
		tb, err := New(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetupVictim(); err != nil {
			t.Fatal(err)
		}
		// Seller ships without unbinding; the setup-time reset emits the
		// device-sent unbind that clears the stale binding.
		buyer, dev := resale(t, tb, p.Design)
		if err := buyer.SetupDevice("bought-device", buyerActions{dev: dev}); err != nil {
			t.Fatalf("buyer setup: %v", err)
		}
		st, err := tb.Shadow()
		if err != nil {
			t.Fatal(err)
		}
		if st.BoundUser != "buyer@example.com" {
			t.Errorf("bound to %q, want the buyer", st.BoundUser)
		}
	})

	t.Run("checking design locks the buyer out (D-LINK)", func(t *testing.T) {
		p, _ := vendors.ByVendor("D-LINK")
		tb, err := New(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetupVictim(); err != nil {
			t.Fatal(err)
		}
		buyer, dev := resale(t, tb, p.Design)
		err = buyer.SetupDevice("bought-device", buyerActions{dev: dev})
		if !errors.Is(err, protocol.ErrAlreadyBound) {
			t.Fatalf("buyer setup = %v, want ErrAlreadyBound (stale binding)", err)
		}
		// The seller still "owns" hardware they no longer possess —
		// and could control it remotely once the buyer powers it on.
		st, err := tb.Shadow()
		if err != nil {
			t.Fatal(err)
		}
		if st.BoundUser != defaultVictimUser {
			t.Errorf("bound to %q, want the (absent) seller", st.BoundUser)
		}
	})

	t.Run("replace design hands over silently (KONKE)", func(t *testing.T) {
		p, _ := vendors.ByVendor("KONKE")
		tb, err := New(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetupVictim(); err != nil {
			t.Fatal(err)
		}
		buyer, dev := resale(t, tb, p.Design)
		if err := buyer.SetupDevice("bought-device", buyerActions{dev: dev}); err != nil {
			t.Fatalf("buyer setup: %v", err)
		}
		st, err := tb.Shadow()
		if err != nil {
			t.Fatal(err)
		}
		if st.BoundUser != "buyer@example.com" {
			t.Errorf("bound to %q, want the buyer via replacement", st.BoundUser)
		}
	})
}

// TestResaleLeakedIDRisk closes the loop with the adversary model: the
// seller (or anyone in the supply chain) who recorded the device ID can
// attack the buyer remotely after the resale — the exact leak channel
// Section III-A describes.
func TestResaleLeakedIDRisk(t *testing.T) {
	p, _ := vendors.ByVendor("E-Link Smart")
	tb, err := New(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetupVictim(); err != nil {
		t.Fatal(err)
	}
	if err := tb.VictimApp().Unbind(tb.DeviceID()); err != nil {
		t.Fatal(err)
	}

	buyer, dev := resale(t, tb, p.Design)
	if err := buyer.SetupDevice("bought-device", buyerActions{dev: dev}); err != nil {
		t.Fatal(err)
	}

	// The "seller" now plays the attacker role with the recorded ID: on
	// this replace-without-check design one forged bind hijacks the
	// buyer's camera.
	if _, err := tb.Attacker().ForgeBind(tb.DeviceID()); err != nil {
		t.Fatal(err)
	}
	st, err := tb.Shadow()
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != defaultAttackerUser {
		t.Errorf("bound to %q, want the attacker (A4-1 against the buyer)", st.BoundUser)
	}
}
