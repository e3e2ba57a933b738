package cloud

import (
	"encoding/hex"
	"fmt"
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
	machine  *core.Machine

	// lastSeen is the time of the last accepted status message; the
	// device expires to offline when now-lastSeen exceeds the heartbeat
	// TTL.
	lastSeen time.Time

	// boundUser is the account bound to the device, empty when unbound.
	boundUser string

	// deleg is the device's delegation lattice (many-to-one binding and
	// its re-delegation chains), rooted at the bound owner and created
	// lazily on the first grant. All delegated authority derives from
	// the owner's binding and vanishes with it.
	deleg *delegation.Lattice

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

	// commandInbox holds control commands awaiting delivery to the device.
	commandInbox []protocol.Command

	// dataInbox holds user data (schedules, ...) awaiting delivery to the
	// device. Whoever successfully authenticates as the device receives
	// it: the data-stealing half of A1.
	dataInbox []protocol.UserData

	// readings holds sensor samples the cloud accepted from "the device".
	readings []protocol.Reading

	// idemResults replays the outcome of accepted Bind/Unbind and keyed
	// Status requests to retried deliveries carrying the same idempotency
	// key, making the agents' at-least-once retry layer exactly-once for
	// binding mutations and for status side effects (command drains,
	// reading ingestion). Only successes are recorded: a failed attempt mutated
	// nothing, so redelivering it re-evaluates honestly. The log is
	// transport-recovery state, not binding state — it survives unbind
	// (the unbind's own replay record must outlive the revocation) and is
	// bounded by maxIdemResults with FIFO eviction (idemOrder).
	idemResults map[string]idemResult
	idemOrder   []string
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
// carried. The status reply sits behind a pointer so the record stays
// within the 128 bytes a map stores in its slot: a larger value gets a
// heap allocation per insert (TestIdemResultFitsMapSlot).
type idemResult struct {
	op          idemOp
	fingerprint [32]byte
	bind        protocol.BindResponse
	status      *protocol.StatusResponse
	delegate    protocol.DelegateResponse
}

func newShadow(deviceID string) *shadow {
	return &shadow{deviceID: deviceID, machine: core.NewMachine()}
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
		// The transition is valid by construction: the state is online.
		_, _ = s.machine.Apply(core.EventStatusExpire)
	}
}

// markOnline records an accepted status message.
func (s *shadow) markOnline(now time.Time) {
	s.lastSeen = now
	if !s.state().Online() {
		_, _ = s.machine.Apply(core.EventStatus)
	}
}

// bind records an accepted binding for user.
func (s *shadow) bind(user string) {
	s.boundUser = user
	if !s.state().BoundToUser() {
		_, _ = s.machine.Apply(core.EventBind)
	}
}

// unbind revokes the binding and clears all user-coupled state so the next
// owner cannot observe the previous owner's data. Shares and delegation
// grants die with the binding they derive from.
func (s *shadow) unbind() {
	s.boundUser = ""
	s.deleg = nil
	s.sessionToken = ""
	s.commandInbox = nil
	s.dataInbox = nil
	s.readings = nil
	if s.state().BoundToUser() {
		_, _ = s.machine.Apply(core.EventUnbind)
	}
}

// recordIdem stores an accepted Bind/Unbind outcome under its idempotency
// key, evicting the oldest record past the cap.
func (s *shadow) recordIdem(key string, r idemResult) {
	if key == "" {
		return
	}
	if s.idemResults == nil {
		s.idemResults = make(map[string]idemResult)
	}
	if _, exists := s.idemResults[key]; !exists {
		s.idemOrder = append(s.idemOrder, key)
		if len(s.idemOrder) > maxIdemResults {
			delete(s.idemResults, s.idemOrder[0])
			s.idemOrder = s.idemOrder[1:]
		}
	}
	s.idemResults[key] = r
}

// replayIdem returns the recorded outcome for a key, matched against the
// operation type and the request fingerprint. A record replays only to a
// request identical to the one that produced it; a key found under the
// same operation with a different fingerprint is reported as a conflict so
// the handler can reject it outright — a guessed or colliding key must
// neither read another request's response nor execute (and re-record)
// under it.
func (s *shadow) replayIdem(key string, op idemOp, fp [32]byte) (r idemResult, ok, conflict bool) {
	if key == "" {
		return idemResult{}, false, false
	}
	rec, found := s.idemResults[key]
	if !found || rec.op != op {
		return idemResult{}, false, false
	}
	if rec.fingerprint != fp {
		return idemResult{}, false, true
	}
	return rec, true, false
}

// exportIdem copies the idempotency log in FIFO order for persistence
// (WithPersistentIdempotency snapshots). The caller holds s.mu.
func (s *shadow) exportIdem() []IdemRecord {
	if len(s.idemOrder) == 0 {
		return nil
	}
	out := make([]IdemRecord, 0, len(s.idemOrder))
	for _, key := range s.idemOrder {
		r, ok := s.idemResults[key]
		if !ok {
			continue
		}
		rec := IdemRecord{
			Key:         key,
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
		s.recordIdem(rec.Key, r)
	}
	return nil
}

// drainForDevice hands the pending commands and user data to whatever
// authenticated as the device.
func (s *shadow) drainForDevice() ([]protocol.Command, []protocol.UserData) {
	cmds, data := s.commandInbox, s.dataInbox
	s.commandInbox = nil
	s.dataInbox = nil
	return cmds, data
}
