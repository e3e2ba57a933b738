package cloud

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/jsonpool"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
)

// snapshotVersion identifies the persisted format.
const snapshotVersion = 1

// Snapshot is the cloud's full persisted state: accounts, live
// credentials, per-device shadows and the activity counters. It restores
// into a service built for the same design; state-machine traces are
// never persisted. The per-shadow idempotency replay log is persisted
// only for services built WithPersistentIdempotency: by default it is
// dropped (the log is transport-recovery state — a restored cloud may
// re-execute a request retried across the restore, exactly like a real
// failover without a replicated dedup table), while the opt-in keeps
// keyed requests at-most-once across the restore, which cloud.Durable
// relies on for crash recovery of in-flight redeliveries.
type Snapshot struct {
	// Version is the format version.
	Version int `json:"version"`
	// DesignName pins the design the snapshot belongs to.
	DesignName string `json:"design_name"`
	// TakenAt is the service clock at snapshot time.
	TakenAt time.Time `json:"taken_at"`
	// Accounts is the user table.
	Accounts map[string]string `json:"accounts"`
	// Tokens are the live credentials.
	Tokens []token.Token `json:"tokens"`
	// Shadows are the per-device states.
	Shadows []ShadowSnapshot `json:"shadows"`
	// Stats are the activity counters.
	Stats Stats `json:"stats"`
}

// ShadowSnapshot is one device shadow's persisted state.
type ShadowSnapshot struct {
	DeviceID     string              `json:"device_id"`
	State        core.ShadowState    `json:"state"`
	LastSeen     time.Time           `json:"last_seen,omitempty"`
	BoundUser    string              `json:"bound_user,omitempty"`
	Grants       []GrantSnapshot     `json:"grants,omitempty"`
	SessionOwner string              `json:"session_owner,omitempty"`
	SessionToken string              `json:"session_token,omitempty"`
	SessionNonce string              `json:"session_nonce,omitempty"`
	ButtonUntil  time.Time           `json:"button_until,omitempty"`
	DeviceIP     string              `json:"device_ip,omitempty"`
	CommandInbox []protocol.Command  `json:"command_inbox,omitempty"`
	DataInbox    []protocol.UserData `json:"data_inbox,omitempty"`
	Readings     []protocol.Reading  `json:"readings,omitempty"`
	// IdemLog is the idempotency replay log in FIFO-eviction order,
	// present only for services built WithPersistentIdempotency.
	IdemLog []IdemRecord `json:"idem_log,omitempty"`
}

// GrantSnapshot is one persisted delegation grant, sorted by grantee in
// the shadow's grant list.
type GrantSnapshot struct {
	Grantor string    `json:"grantor"`
	Grantee string    `json:"grantee"`
	Scopes  []string  `json:"scopes"`
	Expiry  time.Time `json:"expiry,omitempty"`
	Depth   int       `json:"depth,omitempty"`
}

// IdemRecord is one persisted idempotency-log entry: the key, the
// operation it answers, the request fingerprint gating replay, and the
// recorded response.
type IdemRecord struct {
	Key         string                     `json:"key"`
	Op          uint8                      `json:"op"`
	Fingerprint string                     `json:"fp"`
	Bind        *protocol.BindResponse     `json:"bind,omitempty"`
	Status      *protocol.StatusResponse   `json:"status,omitempty"`
	Delegate    *protocol.DelegateResponse `json:"delegate,omitempty"`
}

// Snapshot captures the service's full state. With the sharded store the
// capture is per-device consistent (each shadow is copied under its own
// lock) rather than a single cross-device atomic cut; concurrent traffic
// on device A may or may not appear alongside a simultaneously captured
// device B. Quiesce traffic for a bit-exact global image.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{
		Version:    snapshotVersion,
		DesignName: s.design.Name,
		TakenAt:    s.now(),
		Accounts:   s.accounts.export(),
		Tokens:     s.issuer.Export(),
		Stats:      s.stats.snapshot(),
	}
	sort.Slice(snap.Tokens, func(i, j int) bool { return snap.Tokens[i].Value < snap.Tokens[j].Value })

	for _, id := range s.store.ids() {
		sh, ok := s.store.peek(id)
		if !ok {
			continue
		}
		sh.mu.Lock()
		ss := sh.snapshot(s.persistIdem)
		sh.mu.Unlock()
		snap.Shadows = append(snap.Shadows, ss)
	}
	return snap
}

// snapshot exports the shadow, with its idempotency log when idem is
// set. The caller holds sh.mu.
func (sh *shadow) snapshot(idem bool) ShadowSnapshot {
	ss := ShadowSnapshot{
		DeviceID:     sh.deviceID,
		State:        sh.state(),
		LastSeen:     sh.lastSeen,
		BoundUser:    sh.boundUser,
		SessionOwner: sh.sessionOwner,
		SessionToken: sh.sessionToken,
		SessionNonce: sh.sessionNonce,
		ButtonUntil:  sh.buttonUntil,
		DeviceIP:     sh.deviceIP,
		CommandInbox: append([]protocol.Command(nil), sh.commandInbox...),
		DataInbox:    append([]protocol.UserData(nil), sh.dataInbox...),
		Readings:     sh.readings.list(),
	}
	if idem {
		ss.IdemLog = sh.exportIdem()
	}
	for _, g := range sh.deleg.Grants() {
		ss.Grants = append(ss.Grants, GrantSnapshot{
			Grantor: g.Grantor,
			Grantee: g.Grantee,
			Scopes:  g.Scopes.Names(),
			Expiry:  g.Expiry,
			Depth:   g.Depth,
		})
	}
	return ss
}

// WriteSnapshot serializes a snapshot as JSON.
func (s *Service) WriteSnapshot(w io.Writer) error {
	return EncodeSnapshot(w, s.Snapshot())
}

// EncodeSnapshot serializes a snapshot as indented JSON through the
// pooled codec, so periodic checkpointing does not allocate a fresh
// encoder and buffer per capture.
func EncodeSnapshot(w io.Writer, snap Snapshot) error {
	buf := jsonpool.Get()
	defer buf.Put()
	if err := buf.EncodeIndent(snap, "", "  "); err != nil {
		return fmt.Errorf("cloud: write snapshot: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("cloud: write snapshot: %w", err)
	}
	return nil
}

// Restore replaces the service's state with a snapshot. The snapshot must
// come from a service with the same design name, and every persisted
// shadow must name a device present in the registry.
func (s *Service) Restore(snap Snapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("cloud: %w: snapshot version %d, want %d", protocol.ErrBadRequest, snap.Version, snapshotVersion)
	}
	if snap.DesignName != s.design.Name {
		return fmt.Errorf("cloud: %w: snapshot for design %q, service runs %q", protocol.ErrBadRequest, snap.DesignName, s.design.Name)
	}

	shadows := make(map[string]*shadow, len(snap.Shadows))
	for _, ss := range snap.Shadows {
		if _, ok := s.registry.Lookup(ss.DeviceID); !ok {
			return fmt.Errorf("cloud: %w: snapshot device %q not in registry", protocol.ErrUnknownDevice, ss.DeviceID)
		}
		machine, err := core.RestoreMachine(ss.State)
		if err != nil {
			return fmt.Errorf("cloud: restore %q: %w", ss.DeviceID, err)
		}
		sh := &shadow{
			deviceID:     ss.DeviceID,
			machine:      *machine,
			lastSeen:     ss.LastSeen,
			boundUser:    ss.BoundUser,
			sessionOwner: ss.SessionOwner,
			sessionToken: ss.SessionToken,
			sessionNonce: ss.SessionNonce,
			buttonUntil:  ss.ButtonUntil,
			deviceIP:     ss.DeviceIP,
			commandInbox: append([]protocol.Command(nil), ss.CommandInbox...),
			dataInbox:    append([]protocol.UserData(nil), ss.DataInbox...),
		}
		sh.readings.add(ss.Readings, &s.names)
		for i := range sh.commandInbox {
			sh.commandInbox[i].Name = s.names.hold(sh.commandInbox[i].Name)
		}
		if len(ss.Grants) > 0 {
			grants := make([]delegation.Grant, 0, len(ss.Grants))
			for _, gs := range ss.Grants {
				scopes, err := delegation.ParseScopes(gs.Scopes)
				if err != nil {
					return fmt.Errorf("cloud: restore %q: %w", ss.DeviceID, err)
				}
				grants = append(grants, delegation.Grant{
					Grantor: gs.Grantor,
					Grantee: gs.Grantee,
					Scopes:  scopes,
					Expiry:  gs.Expiry,
					Depth:   gs.Depth,
				})
			}
			lat, err := delegation.Import(ss.BoundUser, grants)
			if err != nil {
				return fmt.Errorf("cloud: restore %q: %w", ss.DeviceID, err)
			}
			sh.deleg = *lat
		}
		if err := sh.importIdem(ss.IdemLog); err != nil {
			return fmt.Errorf("cloud: restore %q: %w", ss.DeviceID, err)
		}
		shadows[ss.DeviceID] = sh
	}

	if err := s.issuer.Import(snap.Tokens); err != nil {
		return fmt.Errorf("cloud: restore tokens: %w", err)
	}
	s.accounts.replace(snap.Accounts)
	s.store.replaceAll(shadows)
	s.stats.restore(snap.Stats)
	return nil
}

// Reset empties the service in place for a new design, as NewService
// built it but keeping its maps' memory and its options: a rewind to an
// empty checkpoint, the registry emptied too. Callers must not race
// traffic.
func (s *Service) Reset(design core.DesignSpec) error {
	if err := design.Validate(); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	s.Rewind(&Checkpoint{design: design})
	return nil
}

// readSnapshot parses a JSON snapshot. The input is staged through a
// pooled buffer so repeated recovery reads reuse one backing array.
func readSnapshot(r io.Reader) (Snapshot, error) {
	buf := jsonpool.Get()
	defer buf.Put()
	if _, err := buf.Writer().ReadFrom(r); err != nil {
		return Snapshot{}, fmt.Errorf("cloud: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return Snapshot{}, fmt.Errorf("cloud: read snapshot: %w", err)
	}
	return snap, nil
}
