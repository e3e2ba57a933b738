// Package cloud implements the emulated IoT cloud: user accounts, the
// manufacturer device registry, per-device shadows driven by the core state
// machine, and the message handlers (status, bind, unbind, control, data)
// whose policy checks are parameterized by a core.DesignSpec. Configuring
// the service with a vendor's design reproduces that vendor's cloud-side
// behaviour, including its vulnerabilities.
package cloud

import (
	"fmt"
	"sort"
	"sync"

	"github.com/iotbind/iotbind/internal/protocol"
)

// DeviceRecord is the manufacturer-side provisioning record for one device.
type DeviceRecord struct {
	// ID is the device identifier (MAC, serial, ...). It is the value
	// the paper's adversary learns from labels, traffic, or enumeration.
	ID string
	// FactorySecret is per-device key material provisioned at
	// manufacture. It stands in for everything a remote attacker cannot
	// extract without the physical device or its firmware: pairing codes,
	// private keys, session crypto.
	FactorySecret string
	// Model is the reported model name.
	Model string
}

// Registry is the vendor's database of manufactured devices. The cloud
// accepts messages only for registered device IDs.
type Registry struct {
	mu      sync.RWMutex
	devices map[string]DeviceRecord
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{devices: make(map[string]DeviceRecord)}
}

// Add registers a manufactured device. Adding a duplicate ID fails.
func (r *Registry) Add(rec DeviceRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("registry: %w: empty device ID", protocol.ErrBadRequest)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.devices[rec.ID]; exists {
		return fmt.Errorf("registry: device %q already registered", rec.ID)
	}
	r.devices[rec.ID] = rec
	return nil
}

// Lookup fetches a device record by ID.
func (r *Registry) Lookup(id string) (DeviceRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.devices[id]
	return rec, ok
}

// canonicalID returns raw as a string: the registry's own copy when raw
// names a registered device (the map probe does not allocate), a fresh
// one otherwise. A decoder that will look the device up anyway uses it
// to keep a known device's ID off the heap.
func (r *Registry) canonicalID(raw []byte) string {
	r.mu.RLock()
	rec, ok := r.devices[string(raw)]
	r.mu.RUnlock()
	if ok {
		return rec.ID
	}
	return string(raw)
}

// IDs returns all registered device IDs in sorted order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.devices))
	for id := range r.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len reports the number of registered devices.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.devices)
}
