package cloud

import (
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
)

// shadow is the cloud-side representation of one device: its state-machine
// position plus the bookkeeping the design-specific policy checks consult.
// Each shadow carries its own lock: handlers serialize per device, never
// across devices. mu nests strictly inside the owning shard's lock (see
// shadowStore) and may wrap calls into the token issuer, but never into
// another shadow or back into a shard.
type shadow struct {
	mu sync.Mutex

	deviceID string
	machine  core.Machine

	// lastSeen is the time of the last accepted status message; the
	// device expires to offline when now-lastSeen exceeds the heartbeat
	// TTL.
	lastSeen time.Time

	// boundUser is the account bound to the device, empty when unbound.
	boundUser string

	// deleg is the device's delegation lattice (many-to-one binding and
	// its re-delegation chains). An empty one is rooted at no one; the
	// first grant roots it at the bound owner. All delegated authority
	// derives from the owner's binding and vanishes with it: unbind
	// empties the lattice in place.
	deleg delegation.Lattice

	// sessionOwner is the account that owns the device token the device
	// most recently authenticated with (AuthDevToken designs). Control is
	// only meaningful when the bound user owns the device's session: this
	// is what makes dynamic device tokens defeat hijacking (Section V-E).
	sessionOwner string

	// sessionToken is the post-binding random token (PostBindingToken
	// designs) expected from both the controlling user and the device.
	sessionToken string

	// sessionNonce is the register-time nonce of DataRequiresSession
	// designs; data-bearing messages must prove HMAC(factorySecret, nonce).
	sessionNonce string

	// buttonUntil is the end of the physical-button binding window
	// (BindButtonWindow designs).
	buttonUntil time.Time

	// deviceIP is the source address of the device's last registration
	// (SourceIPCheck designs compare it with the bind request's source).
	deviceIP string

	// commandInbox holds control commands awaiting delivery to the device,
	// at most maxInbox of them.
	commandInbox []protocol.Command

	// dataInbox holds user data (schedules, ...) awaiting delivery to the
	// device, at most maxInbox of them. Whoever successfully authenticates
	// as the device receives it: the data-stealing half of A1.
	dataInbox []protocol.UserData

	// readings holds the sensor samples the cloud accepted from "the
	// device", the newest readingsRetention of them.
	readings readingRing

	// idem replays the outcome of accepted Bind/Unbind and keyed
	// Status requests to retried deliveries carrying the same idempotency
	// key, making the agents' at-least-once retry layer exactly-once for
	// binding mutations and for status side effects (command drains,
	// reading ingestion). Only successes are recorded: a failed attempt mutated
	// nothing, so redelivering it re-evaluates honestly. The log is
	// transport-recovery state, not binding state — it survives unbind
	// (the unbind's own replay record must outlive the revocation) and is
	// bounded by maxIdemResults with FIFO eviction.
	idem idemLog
}

// maxIdemResults bounds the per-shadow idempotency log. A retry layer
// needs a window of only its in-flight requests; 256 outlives any sane
// redelivery horizon while keeping shadows small.
const maxIdemResults = 256

// idemOp tags the operation an idempotency record belongs to, so a key
// can never replay across operation types.
type idemOp uint8

const (
	idemBind idemOp = iota + 1
	idemUnbind
	idemStatus
	idemDelegate
	idemRevokeDelegation
)

// idemResult is one recorded Bind/Unbind/Status outcome. op distinguishes
// the operation, and fingerprint pins the record to the exact request that
// produced it: a key alone is not a credential, so replay requires
// presenting the same credential-bearing fields the recorded delivery
// carried. The status reply sits behind a pointer: most are one of the
// two shared bound-only replies.
type idemResult struct {
	op          idemOp
	fingerprint [32]byte
	bind        protocol.BindResponse
	status      *protocol.StatusResponse
	delegate    protocol.DelegateResponse
}

// maxInbox bounds each delivery inbox against a bound user queueing for a
// device that never polls: past it the oldest entry is shed, as readings
// past their retention are, so replica and recovery shed the same ones.
const maxInbox = 256

// keptInbox is the largest command inbox array unbind keeps, emptied,
// for the next owner's commands; a larger one is dropped.
const keptInbox = 8

// keepLast trims an inbox in place to its newest n entries. (A ring
// would not fit: a drain hands the inbox's array to the reply.)
func keepLast[T any](q []T, n int) []T { return slices.Delete(q, 0, max(0, len(q)-n)) }

func newShadow(deviceID string) *shadow {
	return &shadow{deviceID: deviceID, machine: *core.NewMachine()}
}

// copyFrom makes s a copy of src, field by field but the lock, in memory
// of s's own: the Figure 2 machine with its trace ring, the lattice, the
// inboxes, the readings and the idempotency log. A list keeps s's array
// even where src's is empty or nil, so a rewound inbox takes its next
// entry without growing one; what reads a list (Snapshot, the drain)
// treats an empty one as nil. Neither shadow may be in use meanwhile. The
// recorded status replies are shared: nothing writes one after it is
// recorded.
func (s *shadow) copyFrom(src *shadow) {
	s.deviceID, s.machine, s.lastSeen, s.boundUser = src.deviceID, src.machine, src.lastSeen, src.boundUser
	s.deleg.CopyFrom(&src.deleg)
	s.sessionOwner, s.sessionToken, s.sessionNonce = src.sessionOwner, src.sessionToken, src.sessionNonce
	s.buttonUntil, s.deviceIP = src.buttonUntil, src.deviceIP
	s.commandInbox = copyList(s.commandInbox, src.commandInbox)
	s.dataInbox = copyList(s.dataInbox, src.dataInbox)
	s.readings.copyFrom(&src.readings.ring)
	s.idem.copyFrom(&src.idem)
}

// copyList returns src's elements in dst's memory, growing it if need
// be; the entries dst held past them are zeroed, so the array keeps no
// stale strings alive.
func copyList[T any](dst, src []T) []T {
	if len(dst) > len(src) {
		clear(dst[len(src):])
	}
	if dst == nil {
		dst = make([]T, 0, len(src))
	}
	return append(dst[:0], src...)
}

// state returns the shadow's state-machine position.
func (s *shadow) state() core.ShadowState { return s.machine.State() }

// refresh applies heartbeat expiry: if the device is online but the TTL has
// passed since lastSeen, it transitions offline.
func (s *shadow) refresh(now time.Time, ttl time.Duration) {
	if !s.state().Online() {
		return
	}
	if now.Sub(s.lastSeen) > ttl {
		s.apply(core.EventStatusExpire)
	}
}

// markOnline records an accepted status message.
func (s *shadow) markOnline(now time.Time) {
	s.lastSeen = now
	if !s.state().Online() {
		s.apply(core.EventStatus)
	}
}

// bind records an accepted binding for user.
func (s *shadow) bind(user string) {
	s.boundUser = user
	if !s.state().BoundToUser() {
		s.apply(core.EventBind)
	}
}

// unbind revokes the binding and clears all user-coupled state so the next
// owner cannot observe the previous owner's data. Shares and delegation
// grants die with the binding they derive from. The lattice and a small
// command inbox are emptied in place, their memory kept for the next
// owner.
func (s *shadow) unbind() {
	s.boundUser = ""
	s.deleg.Reset("")
	s.sessionToken = ""
	clear(s.commandInbox)
	s.commandInbox = s.commandInbox[:0]
	if cap(s.commandInbox) > keptInbox {
		s.commandInbox = nil
	}
	s.dataInbox = nil
	s.readings = readingRing{}
	if s.state().BoundToUser() {
		s.apply(core.EventUnbind)
	}
}

// apply takes e's Figure 2 edge. Every caller guards it with the state
// the edge leaves from, so a refused transition is a broken guard: it
// panics, naming the state and the event, rather than leave the shadow
// off the edge it claims to take.
func (s *shadow) apply(e core.Event) {
	if _, err := s.machine.Apply(e); err != nil {
		panic(fmt.Sprintf("cloud: shadow %s in state %v refused event %v: %v", s.deviceID, s.state(), e, err))
	}
}

// recordIdem stores an accepted outcome under its idempotency key, a
// copy of which the log keeps, at the slot replayIdem found it at (the
// handler holds s.mu from one to the other, and nothing in between
// writes the log) or, for -1, as the newest record past the cap.
func (s *shadow) recordIdem(key string, slot int, r idemResult) {
	if key != "" {
		s.idem.record(key, slot, r)
	}
}

// replayIdem returns the recorded outcome for a key, matched against the
// operation type and the request fingerprint, and the slot the key is
// logged at (else -1) for recordIdem. A record replays only to a request
// identical to the one that produced it; a key found under the same
// operation with a different fingerprint is reported as a conflict so
// the handler can reject it outright — a guessed or colliding key must
// neither read another request's response nor execute (and re-record)
// under it. A key found under another operation is neither: its record
// is overwritten if the request is accepted.
func (s *shadow) replayIdem(key string, op idemOp, fp [32]byte) (r idemResult, slot int, ok, conflict bool) {
	if key == "" {
		return idemResult{}, -1, false, false
	}
	slot = s.idem.find(key)
	if slot < 0 || s.idem.ents.buf[slot].op != op {
		return idemResult{}, slot, false, false
	}
	if rec := s.idem.ents.buf[slot].idemResult; rec.fingerprint == fp {
		return rec, slot, true, false
	}
	return idemResult{}, slot, false, true
}

// exportIdem copies the idempotency log in FIFO order for persistence
// (WithPersistentIdempotency snapshots). The caller holds s.mu.
func (s *shadow) exportIdem() []IdemRecord {
	if len(s.idem.ents.buf) == 0 {
		return nil
	}
	out := make([]IdemRecord, 0, len(s.idem.ents.buf))
	for i := range s.idem.ents.buf {
		slot := s.idem.ents.fifo(i)
		key, _ := s.idem.key(slot)
		r := s.idem.ents.buf[slot].idemResult
		rec := IdemRecord{
			Key:         string(key),
			Op:          uint8(r.op),
			Fingerprint: hex.EncodeToString(r.fingerprint[:]),
		}
		switch r.op {
		case idemBind:
			bind := r.bind
			rec.Bind = &bind
		case idemStatus:
			status := *r.status
			rec.Status = &status
		case idemDelegate:
			delegate := r.delegate
			rec.Delegate = &delegate
		}
		out = append(out, rec)
	}
	return out
}

// importIdem rebuilds the idempotency log from a persisted snapshot,
// preserving FIFO eviction order. Malformed records are rejected so a
// hand-edited snapshot cannot smuggle in an unverifiable entry: a record
// carries exactly the response its operation replays (exportIdem's
// shape) — none for unbind and revoke-delegation, and never another
// operation's.
func (s *shadow) importIdem(records []IdemRecord) error {
	for _, rec := range records {
		op := idemOp(rec.Op)
		if rec.Key == "" || op < idemBind || op > idemRevokeDelegation ||
			(rec.Bind != nil) != (op == idemBind) ||
			(rec.Status != nil) != (op == idemStatus) ||
			(rec.Delegate != nil) != (op == idemDelegate) {
			return fmt.Errorf("idempotency record %q: %w", rec.Key, protocol.ErrBadRequest)
		}
		fp, err := hex.DecodeString(rec.Fingerprint)
		if err != nil || len(fp) != 32 {
			return fmt.Errorf("idempotency record %q fingerprint: %w", rec.Key, protocol.ErrBadRequest)
		}
		r := idemResult{op: op}
		copy(r.fingerprint[:], fp)
		switch op {
		case idemBind:
			r.bind = *rec.Bind
		case idemStatus:
			status := *rec.Status
			r.status = &status
		case idemDelegate:
			r.delegate = *rec.Delegate
		}
		s.recordIdem(rec.Key, s.idem.find(rec.Key), r)
	}
	return nil
}

// drainForDevice hands the pending commands and user data to whatever
// authenticated as the device: a non-empty inbox goes with its array, an
// empty one is handed out as nil and keeps its array for the next entry.
func (s *shadow) drainForDevice() (cmds []protocol.Command, data []protocol.UserData) {
	if len(s.commandInbox) > 0 {
		cmds, s.commandInbox = s.commandInbox, nil
	}
	if len(s.dataInbox) > 0 {
		data, s.dataInbox = s.dataInbox, nil
	}
	return cmds, data
}
