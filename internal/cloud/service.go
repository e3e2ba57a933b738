package cloud

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
)

// Default timing parameters.
const (
	// DefaultHeartbeatTTL is how long a device stays online after its
	// last accepted status message.
	DefaultHeartbeatTTL = 60 * time.Second
	// DefaultButtonWindow is the binding window opened by a physical
	// button press (the paper observes 30 seconds on device #7).
	DefaultButtonWindow = 30 * time.Second
	// DefaultReadingsRetention is how many of a device's most recent
	// readings the cloud keeps; older samples are discarded so
	// long-running shadows stay bounded.
	DefaultReadingsRetention = 1024
)

// Service is one vendor's emulated IoT cloud. All methods are safe for
// concurrent use.
//
// The per-device hot path is sharded: device shadows live in a
// power-of-two-sharded store (see shadowStore) and each shadow carries
// its own lock, so handlers for different devices run fully in parallel.
// Accounts, tokens and activity counters each have independent
// synchronization (RWMutex, RWMutex, lock-free atomics), so no global
// lock exists anywhere on the request path.
type Service struct {
	design   core.DesignSpec
	registry *Registry

	accounts *accountStore
	issuer   *token.Issuer
	store    *shadowStore

	now               func() time.Time
	randomHex         func() (string, error)
	readingsRetention int
	userTokenTTL      time.Duration
	persistIdem       bool

	stats statCounters
}

// Option configures a Service.
type Option interface {
	apply(*Service)
}

type optionFunc func(*Service)

func (f optionFunc) apply(s *Service) { f(s) }

// clockOption is the clock itself: a func value boxes into an Option
// without the closure an optionFunc would allocate per testbed.
type clockOption func() time.Time

func (now clockOption) apply(s *Service) { s.now = now }

// WithClock injects a clock, for deterministic tests and testbeds.
func WithClock(now func() time.Time) Option { return clockOption(now) }

// WithReadingsRetention overrides how many recent readings the cloud
// keeps per device.
func WithReadingsRetention(n int) Option {
	return optionFunc(func(s *Service) { s.readingsRetention = n })
}

// WithUserTokenTTL makes user tokens expire after the given duration
// (zero, the default, means sessions never expire).
func WithUserTokenTTL(ttl time.Duration) Option {
	return optionFunc(func(s *Service) { s.userTokenTTL = ttl })
}

// WithTokenIssuer injects the credential issuer (shared with tests that
// need deterministic tokens).
func WithTokenIssuer(iss *token.Issuer) Option {
	return optionFunc(func(s *Service) { s.issuer = iss })
}

// WithRandomHex injects the nonce source used for session nonces.
// Durable clouds install a logged-entropy source here so a replayed
// operation regenerates the exact nonce it drew live.
func WithRandomHex(f func() (string, error)) Option {
	return optionFunc(func(s *Service) { s.randomHex = f })
}

// WithPersistentIdempotency includes the per-shadow idempotency replay
// log in snapshots, so at-most-once semantics for keyed requests
// survive a restore. The default leaves it out: the log is
// transport-recovery state, and a cloud restored without it behaves
// like a real failover lacking a replicated dedup table (see the
// Snapshot doc comment).
func WithPersistentIdempotency() Option {
	return optionFunc(func(s *Service) { s.persistIdem = true })
}

// NewService builds a cloud for the given design and device registry.
func NewService(design core.DesignSpec, registry *Registry, opts ...Option) (*Service, error) {
	if err := design.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	if registry == nil {
		return nil, fmt.Errorf("cloud: %w: nil registry", protocol.ErrBadRequest)
	}
	s := &Service{
		design:   design,
		registry: registry,
		accounts: newAccountStore(),
		store:    newShadowStore(),
		now:      time.Now,
		randomHex: func() (string, error) {
			var b [16]byte
			if _, err := rand.Read(b[:]); err != nil {
				return "", err
			}
			return hex16(&b), nil
		},
		readingsRetention: DefaultReadingsRetention,
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.issuer == nil {
		s.issuer = token.NewIssuer(token.WithClock(s.now))
	}
	return s, nil
}

// hex16 is the one encoding of a 16-byte session nonce — live, durable
// and replayed draws must spell the same bytes the same way. It encodes on
// the stack, so the string is the only allocation.
func hex16(b *[16]byte) string {
	var text [32]byte
	hex.Encode(text[:], b[:])
	return string(text[:])
}

// Design returns the design spec the cloud enforces.
func (s *Service) Design() core.DesignSpec { return s.design }

// Registry returns the vendor device registry.
func (s *Service) Registry() *Registry { return s.registry }

// DeviceID implements transport.DeviceIDs with the registry.
func (s *Service) DeviceID(raw []byte) string { return s.registry.canonicalID(raw) }

// RegisterUser creates a user account.
func (s *Service) registerUser(req protocol.RegisterUserRequest) error {
	return s.accounts.register(req.UserID, req.Password)
}

// Login authenticates a user and issues a UserToken.
func (s *Service) login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	if err := s.accounts.authenticate(req.UserID, req.Password); err != nil {
		return protocol.LoginResponse{}, err
	}
	tok, err := s.issuer.Issue(token.KindUser, req.UserID, req.UserID, s.userTokenTTL)
	if err != nil {
		return protocol.LoginResponse{}, fmt.Errorf("cloud: issue user token: %w", err)
	}
	return protocol.LoginResponse{UserToken: tok.Value}, nil
}

// RequestDeviceToken issues a dynamic device token (Figure 3, Type 1). The
// pairing proof demonstrates local possession of the device: it is revealed
// by the device over the local network while in setup mode, so a remote
// attacker cannot satisfy this check.
func (s *Service) requestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return protocol.DeviceTokenResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	rec, ok := s.registry.Lookup(req.DeviceID)
	if !ok {
		return protocol.DeviceTokenResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	want := protocol.PairingProof(rec.FactorySecret, rec.ID)
	if !protocol.VerifyProof(req.PairingProof, want) {
		return protocol.DeviceTokenResponse{}, fmt.Errorf("cloud: pairing proof: %w", protocol.ErrAuthFailed)
	}
	devTok, err := s.issuer.Issue(token.KindDevice, userTok.Subject, rec.ID, 0)
	if err != nil {
		return protocol.DeviceTokenResponse{}, fmt.Errorf("cloud: issue device token: %w", err)
	}
	return protocol.DeviceTokenResponse{DevToken: devTok.Value}, nil
}

// RequestBindToken issues a capability binding token (Figure 4c). The
// token is worthless without local delivery to the device: the device must
// submit it back together with a factory-secret proof.
func (s *Service) requestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return protocol.BindTokenResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.BindTokenResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	bindTok, err := s.issuer.Issue(token.KindBind, userTok.Subject, req.DeviceID, 0)
	if err != nil {
		return protocol.BindTokenResponse{}, fmt.Errorf("cloud: issue bind token: %w", err)
	}
	return protocol.BindTokenResponse{BindToken: bindTok.Value}, nil
}

// opEnv pins one in-flight operation's observable environment — the
// clock sample and the entropy stream a session nonce is drawn from. The
// service's injected s.now/s.randomHex are process-wide; a durable cloud
// running logged status operations concurrently on different WAL shards
// cannot pin them per operation through those globals, so it threads the
// pinned values here instead: by value, no func, so building one costs
// no allocation. A nil env means "use the service's own sources" — the
// path every non-durable caller takes — and so does an unseeded g.
type opEnv struct {
	now time.Time
	g   drbg
}

// envNow resolves the operation clock: the pinned sample when an env
// is present, the service clock otherwise.
func (s *Service) envNow(env *opEnv) time.Time {
	if env != nil {
		return env.now
	}
	return s.now()
}

// envNonce resolves the session-nonce source the same way. Draws from
// one env continue one stream.
func (s *Service) envNonce(env *opEnv) (string, error) {
	if env != nil && env.g.seeded() {
		return env.g.hexNonce()
	}
	return s.randomHex()
}

// HandleStatus processes a device status message: authentication (per the
// design's mode), online marking, reading ingestion, and delivery of
// pending commands and user data.
func (s *Service) handleStatus(req protocol.StatusRequest, env *opEnv) (protocol.StatusResponse, error) {
	if req.Kind != protocol.StatusRegister && req.Kind != protocol.StatusHeartbeat {
		return protocol.StatusResponse{}, fmt.Errorf("cloud: status kind: %w", protocol.ErrBadRequest)
	}
	rec, ok := s.registry.Lookup(req.DeviceID)
	if !ok {
		return protocol.StatusResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.statusLocked(sh, rec, req, env)
}

// statusLocked is the status-handling core, shared by the single-message
// and batch paths. The caller holds sh's lock and has already validated
// the status kind and resolved the registry record.
func (s *Service) statusLocked(sh *shadow, rec DeviceRecord, req protocol.StatusRequest, env *opEnv) (protocol.StatusResponse, error) {
	now := s.envNow(env)
	sh.refresh(now, DefaultHeartbeatTTL)

	// A redelivered keyed status replays its recorded response — commands
	// drained by a delivery whose response vanished are re-delivered
	// instead of lost, and piggybacked readings are never ingested twice.
	// Like binds, replay is fingerprint-gated and happens before credential
	// re-evaluation; the fingerprint is computed only on the keyed path, so
	// ordinary unkeyed heartbeats pay nothing for it.
	var fp [32]byte
	if req.IdempotencyKey != "" {
		fp = statusFingerprint(req)
		if r, ok, conflict := sh.replayIdem(req.IdempotencyKey, idemStatus, fp); ok {
			s.stats.statusDeduplicated.Add(1)
			return *r.status, nil
		} else if conflict {
			return protocol.StatusResponse{}, fmt.Errorf("cloud: idempotency key reused by a different request: %w", protocol.ErrAuthFailed)
		}
	}

	// Device authentication (Figure 3 / Section IV-A).
	owner, err := s.authenticateDevice(rec, req)
	if err != nil {
		return protocol.StatusResponse{}, err
	}

	// Post-binding token: once a binding exists, in-session device
	// messages must carry the binding's session token (Section IV-B). A
	// device left with a stale token — e.g. after an attacker replaced
	// the binding — is cut off rather than silently attached to the new
	// binding. Registrations are exempt: they precede session
	// establishment.
	if s.design.PostBindingToken && req.Kind == protocol.StatusHeartbeat &&
		sh.state().BoundToUser() && sh.sessionToken != "" &&
		req.SessionToken != sh.sessionToken {
		return protocol.StatusResponse{}, fmt.Errorf("cloud: post-binding token: %w", protocol.ErrAuthFailed)
	}

	// In-session data proof (DataRequiresSession designs): registrations
	// bootstrap a nonce; data-bearing heartbeats must prove it.
	if s.design.DataRequiresSession {
		if req.Kind == protocol.StatusRegister && len(req.Readings) > 0 {
			return protocol.StatusResponse{}, fmt.Errorf("cloud: readings on register: %w", protocol.ErrBadRequest)
		}
		if req.Kind == protocol.StatusHeartbeat {
			want := protocol.DataProof(rec.FactorySecret, sh.sessionNonce)
			if sh.sessionNonce == "" || !protocol.VerifyProof(req.DataProof, want) {
				return protocol.StatusResponse{}, fmt.Errorf("cloud: data proof: %w", protocol.ErrAuthFailed)
			}
		}
	}

	// Session-tied bindings treat a fresh registration as a device reset
	// and revoke the existing binding (the device #8 behaviour that
	// enables A3-4).
	if s.design.SessionTiedBinding && req.Kind == protocol.StatusRegister && sh.state().BoundToUser() {
		s.revokeBinding(sh)
	}

	sh.markOnline(now)
	if owner != "" {
		sh.sessionOwner = owner
	}

	var resp protocol.StatusResponse
	if req.Kind == protocol.StatusRegister {
		sh.deviceIP = req.SourceIP
		if s.design.DataRequiresSession {
			nonce, err := s.envNonce(env)
			if err != nil {
				return protocol.StatusResponse{}, fmt.Errorf("cloud: session nonce: %w", err)
			}
			sh.sessionNonce = nonce
			resp.SessionNonce = nonce
		}
		if s.design.BindButtonWindow && req.ButtonPressed {
			sh.buttonUntil = now.Add(DefaultButtonWindow)
		}
	}

	if len(req.Readings) > 0 {
		sh.readings = append(sh.readings, req.Readings...)
		if excess := len(sh.readings) - s.readingsRetention; excess > 0 {
			sh.readings = append(sh.readings[:0], sh.readings[excess:]...)
		}
	}

	resp.Bound = sh.state().BoundToUser()
	if resp.Bound && req.Kind == protocol.StatusHeartbeat {
		resp.Commands, resp.UserData = sh.drainForDevice()
	}
	if req.IdempotencyKey != "" {
		// A bound-only reply (nil tested exactly, so a replay stays
		// DeepEqual) is shared; any other gets its own copy, made here:
		// taking &resp would move every reply to the heap.
		kept := &replyUnbound
		if resp.SessionNonce != "" || resp.Commands != nil || resp.UserData != nil {
			own := resp
			kept = &own
		} else if resp.Bound {
			kept = &replyBound
		}
		sh.recordIdem(req.IdempotencyKey, idemResult{op: idemStatus, fingerprint: fp, status: kept})
	}
	return resp, nil
}

// Shared bound-only replies: replay and exportIdem copy them, never write.
var replyBound, replyUnbound = protocol.StatusResponse{Bound: true}, protocol.StatusResponse{}

// HandleBind processes a binding-creation message under the design's
// mechanism and policy checks (Figure 4 / Sections IV-B, V-C, V-E).
func (s *Service) handleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	rec, ok := s.registry.Lookup(req.DeviceID)
	if !ok {
		return protocol.BindResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	sh.refresh(now, DefaultHeartbeatTTL)

	// A redelivered bind replays its recorded response without touching
	// state or re-evaluating credentials — the first delivery may have
	// consumed a single-use capability token, so re-evaluation would
	// wrongly reject the retry of a bind that already succeeded. Replay is
	// gated on the request fingerprint: the key alone is no credential, so
	// a guessed or colliding key can neither harvest another request's
	// session token nor overwrite its record.
	fp := bindFingerprint(req)
	if r, ok, conflict := sh.replayIdem(req.IdempotencyKey, idemBind, fp); ok {
		s.stats.bindsDeduplicated.Add(1)
		return r.bind, nil
	} else if conflict {
		return protocol.BindResponse{}, fmt.Errorf("cloud: idempotency key reused by a different request: %w", protocol.ErrAuthFailed)
	}

	user, err := s.bindUser(rec, req)
	if err != nil {
		return protocol.BindResponse{}, err
	}

	if s.design.BindButtonWindow && now.After(sh.buttonUntil) {
		return protocol.BindResponse{}, fmt.Errorf("cloud: button window: %w", protocol.ErrOutsideWindow)
	}
	if s.design.SourceIPCheck && (sh.deviceIP == "" || req.SourceIP != sh.deviceIP) {
		return protocol.BindResponse{}, fmt.Errorf("cloud: source IP mismatch: %w", protocol.ErrOutsideWindow)
	}

	if sh.state().BoundToUser() {
		switch {
		case sh.boundUser == user:
			// Idempotent re-bind by the same user. This is a full
			// acceptance: the capability token (if any) is consumed and the
			// outcome recorded, so a redelivery whose first response was
			// lost replays instead of failing on the spent token.
			resp := protocol.BindResponse{BoundUser: user, SessionToken: sh.sessionToken}
			s.consumeBindToken(req)
			sh.recordIdem(req.IdempotencyKey, idemResult{op: idemBind, fingerprint: fp, bind: resp})
			return resp, nil
		case s.design.CheckBoundUserOnBind && !s.design.ReplaceOnBind:
			return protocol.BindResponse{}, fmt.Errorf("cloud: bound to another user: %w", protocol.ErrAlreadyBound)
		default:
			// Replace the previous binding — either the explicit Type 3
			// design or a cloud that blindly manipulates bindings
			// (Section V-E, A4-1).
			s.stats.bindingsReplaced.Add(1)
			s.revokeBinding(sh)
		}
	}

	sh.bind(user)
	resp := protocol.BindResponse{BoundUser: user}
	if s.design.PostBindingToken {
		sess, err := s.issuer.Issue(token.KindSession, user, req.DeviceID, 0)
		if err != nil {
			return protocol.BindResponse{}, fmt.Errorf("cloud: issue session token: %w", err)
		}
		sh.sessionToken = sess.Value
		resp.SessionToken = sess.Value
	}
	s.consumeBindToken(req)
	sh.recordIdem(req.IdempotencyKey, idemResult{op: idemBind, fingerprint: fp, bind: resp})
	return resp, nil
}

// A request fingerprint is the SHA-256 of the fields that identify and
// authenticate the request, each preceded by its length as eight
// big-endian bytes so adjacent fields cannot alias; numbers and booleans
// enter as their decimal / 'g' / "true"/"false" text. Idempotency replay
// is pinned to it: a key only answers the exact request that recorded it.
// The hash input is built with the fp* appenders in a buffer that starts
// on the caller's stack (fpStack bytes cover every request the clients in
// this repository send; a longer one spills to the heap) and hashed once,
// so a keyed request pays for no intermediate strings. The bytes are
// persisted in snapshots and pinned by TestFingerprintBytesPinned.
const fpStack = 512

// fpStr appends one field: its length, then its bytes.
func fpStr[T string | []byte](b []byte, f T) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(f)))
	return append(b, f...)
}

// fpInt appends an integer field as its decimal text.
func fpInt(b []byte, v int64) []byte {
	var text [20]byte
	return fpStr(b, strconv.AppendInt(text[:0], v, 10))
}

// requestFingerprint fingerprints a request made of string fields only.
func requestFingerprint(fields ...string) [32]byte {
	var stack [fpStack]byte
	b := stack[:0]
	for _, f := range fields {
		b = fpStr(b, f)
	}
	return sha256.Sum256(b)
}

func bindFingerprint(req protocol.BindRequest) [32]byte {
	return requestFingerprint("bind", req.DeviceID, req.UserToken, req.UserID,
		req.UserPassword, req.BindToken, req.BindProof, strconv.Itoa(int(req.Sender)))
}

func unbindFingerprint(req protocol.UnbindRequest) [32]byte {
	return requestFingerprint("unbind", req.DeviceID, req.UserToken, strconv.Itoa(int(req.Sender)))
}

// statusFingerprint covers a status message's credential-bearing fields
// plus its data payload: two different heartbeats accidentally sharing a
// key must conflict rather than one replaying the other's response. It is
// computed only for keyed requests, so the unkeyed hot path never pays for
// the hashing.
func statusFingerprint(req protocol.StatusRequest) [32]byte {
	var stack [fpStack]byte
	b := fpStr(stack[:0], "status")
	b = fpInt(b, int64(req.Kind))
	b = fpStr(b, req.DeviceID)
	b = fpStr(b, req.DevToken)
	b = fpStr(b, req.Signature)
	b = fpStr(b, req.SessionToken)
	b = fpStr(b, req.DataProof)
	b = fpStr(b, strconv.FormatBool(req.ButtonPressed))
	var text [32]byte // the longest 'g' text of a float64 is 24 bytes
	for i := range req.Readings {
		rd := &req.Readings[i]
		b = fpStr(b, rd.Name)
		b = fpStr(b, strconv.AppendFloat(text[:0], rd.Value, 'g', -1, 64))
		b = fpInt(b, rd.At.UnixNano())
	}
	return sha256.Sum256(b)
}

// HandleUnbind processes a binding-revocation message (Section IV-C).
func (s *Service) handleUnbind(req protocol.UnbindRequest) error {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.refresh(s.now(), DefaultHeartbeatTTL)

	// A redelivered unbind whose first delivery already revoked the
	// binding reports success again instead of ErrNotBound, so a retrying
	// agent cannot misread its own lost response as a failed revocation.
	// As with binds, replay is fingerprint-gated: only the exact request
	// that recorded the outcome may claim it.
	fp := unbindFingerprint(req)
	if _, ok, conflict := sh.replayIdem(req.IdempotencyKey, idemUnbind, fp); ok {
		s.stats.unbindsDeduplicated.Add(1)
		return nil
	} else if conflict {
		return fmt.Errorf("cloud: idempotency key reused by a different request: %w", protocol.ErrAuthFailed)
	}

	form := core.UnbindDevIDUserToken
	if req.UserToken == "" {
		form = core.UnbindDevIDAlone
	}
	if !s.design.SupportsUnbind(form) {
		return fmt.Errorf("cloud: unbind form %v: %w", form, protocol.ErrUnsupported)
	}
	if !sh.state().BoundToUser() {
		return fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}
	if form == core.UnbindDevIDUserToken {
		userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
		if err != nil {
			return fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
		}
		if s.design.CheckBoundUserOnUnbind && userTok.Subject != sh.boundUser {
			return fmt.Errorf("cloud: unbind by non-owner: %w", protocol.ErrNotPermitted)
		}
	}
	s.revokeBinding(sh)
	sh.recordIdem(req.IdempotencyKey, idemResult{op: idemUnbind, fingerprint: fp})
	return nil
}

// HandleControl relays a command from the bound user to the device.
func (s *Service) handleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	sh.refresh(now, DefaultHeartbeatTTL)

	user, viaDelegation, err := s.controlPrincipal(req.DeviceID, req.UserToken, now)
	if err != nil {
		return protocol.ControlResponse{}, err
	}
	if !sh.state().BoundToUser() {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}
	isOwner := sh.boundUser == user
	if !isOwner && !s.delegatedAuthority(sh, user, viaDelegation, delegation.ScopeControl, now) {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: control by non-owner: %w", protocol.ErrNotPermitted)
	}
	if !sh.state().Online() {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: %w", protocol.ErrDeviceOffline)
	}
	// Guests act under the owner's binding: their authorization is
	// cloud-mediated (the share grant), so the post-binding session token
	// is required from the owner only.
	if isOwner && s.design.PostBindingToken && req.SessionToken != sh.sessionToken {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: post-binding token: %w", protocol.ErrAuthFailed)
	}
	// With dynamic device tokens, the device's authenticated session
	// belongs to the account that configured it locally. Commands for a
	// binding that does not own the session would never reach the real
	// device; refusing them is what makes DevToken designs hijack-proof
	// (Section V-E). Guests ride on the owner's binding, so the session
	// must belong to the bound owner.
	if s.design.EffectiveAuth() == core.AuthDevToken && sh.sessionOwner != sh.boundUser {
		return protocol.ControlResponse{}, fmt.Errorf("cloud: device session owned by another account: %w", protocol.ErrNotPermitted)
	}
	sh.commandInbox = append(sh.commandInbox, req.Command)
	return protocol.ControlResponse{Queued: true}, nil
}

// PushUserData stores user state for delivery to the device.
func (s *Service) PushUserData(req protocol.PushUserDataRequest) error {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() || sh.boundUser != userTok.Subject {
		return fmt.Errorf("cloud: %w", protocol.ErrNotPermitted)
	}
	sh.dataInbox = append(sh.dataInbox, req.Data)
	return nil
}

// Readings returns the device readings as visible to the bound user.
func (s *Service) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.ReadingsResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	user, viaDelegation, err := s.controlPrincipal(req.DeviceID, req.UserToken, now)
	if err != nil {
		return protocol.ReadingsResponse{}, err
	}
	if !sh.state().BoundToUser() ||
		(sh.boundUser != user && !s.delegatedAuthority(sh, user, viaDelegation, delegation.ScopeRead, now)) {
		return protocol.ReadingsResponse{}, fmt.Errorf("cloud: %w", protocol.ErrNotPermitted)
	}
	out := make([]protocol.Reading, len(sh.readings))
	copy(out, sh.readings)
	return protocol.ReadingsResponse{Readings: out}, nil
}

// ShadowState reports a device shadow's state-machine position (testbed
// and diagnostics use; not part of any vendor API surface).
func (s *Service) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.ShadowStateResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.refresh(s.now(), DefaultHeartbeatTTL)
	return protocol.ShadowStateResponse{State: sh.state(), BoundUser: sh.boundUser}, nil
}

// requeueDeliveries returns drained-but-undelivered commands and user
// data to the front of the device's inboxes, in their original order.
// The durable layer calls it when the WAL refuses the record that would
// have made a fast-path drain durable: the delivery fails back to the
// device, so the items must stay queued — otherwise the live process
// keeps running without them while a recovered one still has them.
func (s *Service) requeueDeliveries(deviceID string, cmds []protocol.Command, data []protocol.UserData) {
	if len(cmds) == 0 && len(data) == 0 {
		return
	}
	sh := s.store.get(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(cmds) > 0 {
		sh.commandInbox = append(cmds, sh.commandInbox...)
	}
	if len(data) > 0 {
		sh.dataInbox = append(data, sh.dataInbox...)
	}
}

// livenessOf reports the device's current liveness state — its
// lastSeen time and session owner. The durable layer reads it when
// flushing a pending liveness note: by the note invariant, nothing has
// moved either field since the last unlogged heartbeat, so this is
// exactly the state that heartbeat stored.
func (s *Service) livenessOf(deviceID string) (time.Time, string) {
	sh := s.store.get(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lastSeen, sh.sessionOwner
}

// applyLiveness re-establishes a device's liveness state from a WAL
// liveness record: the coalesced effect of the bare heartbeats the
// durable layer applied without individual records. It bypasses the
// status handler deliberately — no credential re-evaluation (the live
// heartbeats already passed), no inbox drain (they drained nothing, or
// the drain got its own record), no counters (the skipped heartbeats'
// counters are durable only as of the last checkpoint).
func (s *Service) applyLiveness(deviceID string, at time.Time, owner string) {
	if _, ok := s.registry.Lookup(deviceID); !ok {
		return
	}
	sh := s.store.get(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.markOnline(at)
	if owner != "" {
		sh.sessionOwner = owner
	}
}

// ShadowTrace returns the most recent state-machine transitions of a
// device shadow (core.MaxTrace), for experiment reporting.
func (s *Service) ShadowTrace(deviceID string) []core.Transition {
	sh, ok := s.store.peek(deviceID)
	if !ok {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.machine.Trace()
}

// authenticateDevice applies the design's device-authentication mode
// to a status message, returning the owning account for token-based modes.
// It touches no shadow state; callers hold the target shadow's lock only
// to serialize the surrounding status handling.
func (s *Service) authenticateDevice(rec DeviceRecord, req protocol.StatusRequest) (string, error) {
	switch s.design.EffectiveAuth() {
	case core.AuthDevID:
		// Static-identifier authentication: possession of the device ID
		// string is the whole check. This is the Figure 3 Type 2 design
		// whose weakness the paper demonstrates.
		return "", nil
	case core.AuthDevToken:
		devTok, err := s.issuer.Verify(token.KindDevice, req.DevToken)
		if err != nil || devTok.Subject != rec.ID {
			return "", fmt.Errorf("cloud: device token: %w", protocol.ErrAuthFailed)
		}
		return devTok.Owner, nil
	case core.AuthPublicKey:
		want := protocol.StatusSignature(rec.FactorySecret, rec.ID, req.Kind)
		if !protocol.VerifyProof(req.Signature, want) {
			return "", fmt.Errorf("cloud: status signature: %w", protocol.ErrAuthFailed)
		}
		return "", nil
	default:
		return "", fmt.Errorf("cloud: %w: unsupported auth mode", protocol.ErrBadRequest)
	}
}

// bindUser resolves the user a bind request speaks for, under the
// design's binding mechanism. Account and token state have their own
// synchronization; callers hold the target shadow's lock.
func (s *Service) bindUser(rec DeviceRecord, req protocol.BindRequest) (string, error) {
	switch s.design.Binding {
	case core.BindACLApp:
		userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
		if err != nil {
			return "", fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
		}
		return userTok.Subject, nil
	case core.BindACLDevice:
		if err := s.accounts.authenticate(req.UserID, req.UserPassword); err != nil {
			return "", err
		}
		return req.UserID, nil
	case core.BindCapability:
		bindTok, err := s.issuer.Verify(token.KindBind, req.BindToken)
		if err != nil || bindTok.Subject != rec.ID {
			return "", fmt.Errorf("cloud: bind token: %w", protocol.ErrAuthFailed)
		}
		want := protocol.BindProof(rec.FactorySecret, req.BindToken)
		if !protocol.VerifyProof(req.BindProof, want) {
			return "", fmt.Errorf("cloud: bind proof: %w", protocol.ErrAuthFailed)
		}
		// Single-use consumption is deferred to consumeBindToken: the
		// token is spent only when the bind is fully accepted, so a
		// policy rejection (button window, source IP, already bound)
		// leaves it valid and a redelivery re-evaluates to the same
		// rejection code instead of drifting to auth_failed.
		return bindTok.Owner, nil
	default:
		return "", fmt.Errorf("cloud: %w: unsupported binding mechanism", protocol.ErrBadRequest)
	}
}

// consumeBindToken retires a single-use capability token once its bind has
// been fully accepted. The caller holds the target shadow's lock (the same
// shadow -> issuer nesting as revokeBinding).
func (s *Service) consumeBindToken(req protocol.BindRequest) {
	if s.design.Binding == core.BindCapability {
		s.issuer.Revoke(req.BindToken)
	}
}

// revokeBinding clears a binding and retires its session tokens and
// delegation tokens — delegated authority derives from the binding and
// must not outlive it. The caller holds sh's lock; the issuer's own lock
// nests inside it (shadow -> issuer is the only cross-structure nesting
// on the hot path, and the issuer never calls back into shadows, so the
// order cannot invert).
func (s *Service) revokeBinding(sh *shadow) {
	s.issuer.RevokeSubject(token.KindSession, sh.deviceID)
	s.issuer.RevokeSubject(token.KindDelegation, sh.deviceID)
	sh.unbind()
}

// controlPrincipal resolves the account a control-plane credential
// speaks for: a user token names its subject; a delegation token minted
// for this device names its grantee. One issuer lookup dispatches on
// the credential family — probing kind by kind would put a failed
// verification (with its allocated mismatch error) on the delegated hot
// path. The caller holds the target shadow's lock (the issuer nests
// inside it).
func (s *Service) controlPrincipal(deviceID, credential string, now time.Time) (user string, viaDelegation bool, err error) {
	tok, terr := s.issuer.Resolve(credential, now)
	if terr == nil {
		switch {
		case tok.Kind == token.KindUser:
			return tok.Subject, false, nil
		case tok.Kind == token.KindDelegation && tok.Subject == deviceID:
			return tok.Owner, true, nil
		}
	}
	return "", false, fmt.Errorf("cloud: %w: no user or delegation credential", protocol.ErrAuthFailed)
}

// delegatedAuthority decides whether a non-owner may exercise scope on
// the device, under the shadow's lock — which is what makes the check
// atomic with revocation: a control attempt racing a revoke observes
// the lattice before or after the severing, never between. A delegation
// token normally still walks its grant chain here (DelegationCheckAtUse);
// designs lacking that check accept the minted token at face value until
// its own expiry — the A6-3 revocation-race window.
func (s *Service) delegatedAuthority(sh *shadow, user string, viaDelegation bool, scope delegation.Scope, now time.Time) bool {
	if viaDelegation && !s.design.DelegationCheckAtUse {
		return true
	}
	return sh.deleg != nil && sh.deleg.Authorize(user, scope, now)
}
