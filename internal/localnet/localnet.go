// Package localnet simulates the home local network that remote binding's
// local-configuration phase runs on: SSDP-style discovery, SmartConfig-style
// provisioning, and the physical proximity that reveals pairing material.
//
// The adversary model of the paper (Section III-A) assumes the attacker has
// no access to the victim's LAN — local networks sit behind WPA2 and
// firewalls. The simulation enforces this structurally: only parties holding
// a reference to a Network can discover or provision the devices on it, and
// a party's requests to the cloud carry the public IP of the network it
// sits on.
package localnet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Announcement is a device's SSDP-style self-description, broadcast in
// response to discovery. Some vendors include the device ID here — exactly
// the "user-friendly feature" whose leakage the paper exploits.
type Announcement struct {
	// LocalName is the device's name on the LAN.
	LocalName string
	// DeviceID is the device identifier (also printed on the label).
	DeviceID string
	// Model is the device model string.
	Model string
	// SetupMode reports whether the device is accepting provisioning.
	SetupMode bool
	// PairingProof is local-possession material revealed only in setup
	// mode; the app forwards it when requesting a dynamic device token.
	PairingProof string
}

// Provisioning is the configuration the app delivers to a device over the
// LAN during local binding: Wi-Fi credentials plus whichever credentials
// the vendor's design calls for.
type Provisioning struct {
	// WiFiSSID and WiFiPassword join the device to the home network.
	WiFiSSID, WiFiPassword string
	// DevToken is the dynamic device token (AuthDevToken designs).
	DevToken string
	// SessionToken is the post-binding token (PostBindingToken designs),
	// delivered after the app created the binding.
	SessionToken string
	// BindUserID and BindUserPassword are the user's account credentials
	// (device-initiated ACL binding; the practice Section IV-B warns
	// about).
	BindUserID, BindUserPassword string
	// BindToken is the capability token (capability-based binding).
	BindToken string
}

// Responder is a device's LAN-facing interface.
type Responder interface {
	// LocalName returns the device's name on the LAN.
	LocalName() string
	// Announce answers discovery; ok=false keeps the device silent.
	Announce() (ann Announcement, ok bool)
	// Provision delivers configuration to the device.
	Provision(Provisioning) error
}

// Network is one simulated LAN with a single public (NAT) address, and
// optionally WPA2-protected Wi-Fi: provisioning a device with the wrong
// credentials leaves it off the network.
type Network struct {
	name       string
	publicIP   string
	ssid       string
	passphrase string

	mu         sync.Mutex
	responders map[string]Responder
}

// Errors returned by Network operations.
var (
	// ErrNotPresent is returned when addressing a device that is not on
	// this network.
	ErrNotPresent = errors.New("localnet: device not present on this network")
	// ErrDuplicateName is returned when two members share a local name.
	ErrDuplicateName = errors.New("localnet: duplicate local name")
	// ErrWrongCredentials is returned when provisioning carries Wi-Fi
	// credentials that do not match a protected network.
	ErrWrongCredentials = errors.New("localnet: Wi-Fi credentials rejected")
)

// NewNetwork creates an open LAN with the given name and public address.
func NewNetwork(name, publicIP string) *Network {
	return &Network{name: name, publicIP: publicIP}
}

// NewProtectedNetwork creates a WPA2-protected LAN: devices join only
// when provisioned with the matching SSID and passphrase.
func NewProtectedNetwork(name, publicIP, ssid, passphrase string) *Network {
	n := NewNetwork(name, publicIP)
	n.ssid = ssid
	n.passphrase = passphrase
	return n
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// PublicIP returns the address the cloud observes for every member of this
// network.
func (n *Network) PublicIP() string { return n.publicIP }

// Join places a device in radio range of this network.
func (n *Network) Join(r Responder) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	name := r.LocalName()
	if name == "" {
		return fmt.Errorf("localnet: %w: empty name", ErrDuplicateName)
	}
	if _, exists := n.responders[name]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	if n.responders == nil {
		// Made by the first Join: a network nobody joins (the attacker's,
		// in every testbed) reads as empty without one.
		n.responders = make(map[string]Responder)
	}
	n.responders[name] = r
	return nil
}

// Leave removes a device from the network. Removing an absent device is a
// no-op.
func (n *Network) Leave(localName string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.responders, localName)
}

// Discover broadcasts an SSDP-style search and collects announcements,
// sorted by local name for determinism.
func (n *Network) Discover() []Announcement {
	n.mu.Lock()
	responders := make([]Responder, 0, len(n.responders))
	for _, r := range n.responders {
		responders = append(responders, r)
	}
	n.mu.Unlock()

	var anns []Announcement
	for _, r := range responders {
		if ann, ok := r.Announce(); ok {
			anns = append(anns, ann)
		}
	}
	slices.SortFunc(anns, func(a, b Announcement) int { return strings.Compare(a.LocalName, b.LocalName) })
	return anns
}

// Provision delivers configuration to a named device on this network. On
// a protected network, provisioning that carries Wi-Fi credentials must
// match the network's; credential-free deliveries (e.g. a post-binding
// session token) pass through.
func (n *Network) Provision(localName string, p Provisioning) error {
	n.mu.Lock()
	r, ok := n.responders[localName]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotPresent, localName)
	}
	if n.ssid != "" && p.WiFiSSID != "" &&
		(p.WiFiSSID != n.ssid || p.WiFiPassword != n.passphrase) {
		return fmt.Errorf("%w: ssid %q", ErrWrongCredentials, p.WiFiSSID)
	}
	return r.Provision(p)
}

// Members returns the local names present on the network, sorted.
func (n *Network) Members() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.responders))
	for name := range n.responders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
