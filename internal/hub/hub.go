// Package hub implements the four-party communication architecture the
// paper's discussion raises as an open extension (Section VIII): low-power
// Zigbee/Bluetooth end nodes that have no IP connectivity of their own and
// reach the cloud through an IP hub. The hub is the "device" in the
// cloud's eyes — it authenticates, binds and heartbeats exactly like any
// other device agent — while bridging a personal-area network of
// sub-devices.
//
// The security consequence the package makes measurable: the remote
// binding binds the hub, so every attack on the hub's binding is
// amplified across all paired sub-devices. Hijacking one hub identity
// yields control of every sensor and actuator behind it; a forged hub
// status message exfiltrates the data of the whole home.
package hub

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Errors returned by the hub.
var (
	// errJoinClosed is returned when pairing is attempted outside a
	// permit-join window.
	errJoinClosed = errors.New("hub: pairing window closed (call PermitJoin first)")
	// errDuplicateSub is returned when a sub-device name is taken.
	errDuplicateSub = errors.New("hub: sub-device name already paired")
	// errUnknownSub is returned when routing targets a sub-device that
	// is not paired.
	errUnknownSub = errors.New("hub: unknown sub-device")
)

// TargetArg is the command argument naming the sub-device a command is
// routed to. Commands without it address the hub itself.
const TargetArg = "target"

// SubDevice is one low-power end node on the hub's personal-area network.
// It has no cloud identity: its readings and commands travel via the hub.
type SubDevice struct {
	mu       sync.Mutex
	name     string
	kind     string
	pending  []protocol.Reading
	executed []protocol.Command
	now      func() time.Time
}

// NewSubDevice creates an end node, e.g. NewSubDevice("door-1", "contact").
func NewSubDevice(name, kind string) *SubDevice {
	return &SubDevice{name: name, kind: kind, now: time.Now}
}

// Name returns the node's PAN name.
func (s *SubDevice) Name() string { return s.name }

// Kind returns the node category.
func (s *SubDevice) Kind() string { return s.kind }

// Report queues a sensor sample for the hub's next collection.
func (s *SubDevice) Report(metric string, value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, protocol.Reading{Name: metric, Value: value, At: s.now()})
}

// Executed returns the commands the node has executed.
func (s *SubDevice) Executed() []protocol.Command {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]protocol.Command, len(s.executed))
	copy(out, s.executed)
	return out
}

// collect drains the node's pending samples, prefixing the metric with
// the node name.
func (s *SubDevice) collect() []protocol.Reading {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]protocol.Reading, 0, len(s.pending))
	for _, r := range s.pending {
		r.Name = s.name + "/" + r.Name
		out = append(out, r)
	}
	s.pending = nil
	return out
}

// execute delivers a routed command to the node.
func (s *SubDevice) execute(cmd protocol.Command) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.executed = append(s.executed, cmd)
}

// Hub bridges a personal-area network of SubDevices to the cloud through
// an ordinary device agent.
// The hub lock guards only the PAN roster and routing bookkeeping; each
// SubDevice carries its own lock, so collection and command execution
// fan out per node without holding the hub-wide lock. Readers of the
// roster (Sync, Subs, HubExecuted) take the lock shared.
type Hub struct {
	dev *device.Device

	mu         sync.RWMutex
	subs       map[string]*SubDevice
	permitJoin bool
	routed     int // how many hub-executed commands have been routed
	hubCmds    []protocol.Command
}

// New creates a hub whose cloud-facing behaviour follows the given design.
// The returned hub's Device() joins local networks and is set up by the
// app exactly like a standalone device.
func New(cfg device.Config, design core.DesignSpec, cloud transport.Cloud, opts ...device.Option) (*Hub, error) {
	dev, err := device.New(cfg, design, cloud, opts...)
	if err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}
	return &Hub{dev: dev, subs: make(map[string]*SubDevice)}, nil
}

// Device returns the hub's cloud/LAN-facing device agent.
func (h *Hub) Device() *device.Device { return h.dev }

// PermitJoin opens or closes the PAN pairing window (the physical pairing
// button on real hubs).
func (h *Hub) PermitJoin(open bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.permitJoin = open
}

// Pair joins an end node to the hub's PAN. The pairing window must be
// open — PAN pairing is a local, physical-proximity act, which is exactly
// why the remote adversary cannot inject sub-devices.
func (h *Hub) Pair(s *SubDevice) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.permitJoin {
		return errJoinClosed
	}
	if _, exists := h.subs[s.Name()]; exists {
		return fmt.Errorf("%w: %q", errDuplicateSub, s.Name())
	}
	h.subs[s.Name()] = s
	return nil
}

// Unpair removes an end node; unknown names are a no-op.
func (h *Hub) Unpair(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, name)
}

// Subs lists the paired node names, sorted.
func (h *Hub) Subs() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.subs))
	for name := range h.subs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HubExecuted returns the commands addressed to the hub itself.
func (h *Hub) HubExecuted() []protocol.Command {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]protocol.Command, len(h.hubCmds))
	copy(out, h.hubCmds)
	return out
}

// Sync performs one bridge cycle: collect every node's readings into the
// hub's uplink queue, heartbeat the cloud, and route freshly delivered
// commands to their target nodes. A Sync with a rejected heartbeat (e.g.
// the hub's binding was replaced) returns the cloud error; nothing is
// routed.
func (h *Hub) Sync() error {
	h.mu.RLock()
	subs := make([]*SubDevice, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.RUnlock()

	for _, s := range subs {
		for _, r := range s.collect() {
			h.dev.QueueReading(r.Name, r.Value)
		}
	}

	if err := h.dev.Heartbeat(); err != nil {
		return fmt.Errorf("hub: %w", err)
	}

	return h.routeNewCommands()
}

// routeNewCommands dispatches commands the device agent received since the
// last sync. Commands with an unknown target are dropped with an error
// (the real device logs and ignores them).
func (h *Hub) routeNewCommands() error {
	// ExecutedSince copies only the commands delivered since the last
	// sync, so a long-lived hub never re-copies its full history. The
	// cursor advances under the hub lock, which keeps concurrent syncs
	// from routing the same command twice; device locks nest inside hub
	// locks, never the other way.
	h.mu.Lock()
	fresh := h.dev.ExecutedSince(h.routed)
	h.routed += len(fresh)
	subs := make(map[string]*SubDevice, len(h.subs))
	for name, s := range h.subs {
		subs[name] = s
	}
	h.mu.Unlock()

	var firstErr error
	var forHub []protocol.Command
	for _, cmd := range fresh {
		target := cmd.Args[TargetArg]
		if target == "" {
			forHub = append(forHub, cmd)
			continue
		}
		s, ok := subs[target]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %q", errUnknownSub, target)
			}
			continue
		}
		s.execute(cmd)
	}
	if len(forHub) > 0 {
		h.mu.Lock()
		h.hubCmds = append(h.hubCmds, forHub...)
		h.mu.Unlock()
	}
	return firstErr
}
