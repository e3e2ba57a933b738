// Package token provides the random-credential primitives used throughout
// the remote-binding emulation: user tokens, device tokens, bind tokens and
// post-binding session tokens (Table I of the paper). All tokens are opaque
// random strings; the Issuer tracks validity, ownership and expiry so the
// cloud can verify them with constant-time comparison.
package token

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind distinguishes the credential families of Table I.
type Kind int

// Token kinds.
const (
	// KindUser authenticates a logged-in user (UserToken).
	KindUser Kind = iota + 1
	// KindDevice authenticates a device that received a dynamic secret
	// during local configuration (DevToken).
	KindDevice
	// KindBind authorizes a single binding creation in capability-based
	// designs (BindToken).
	KindBind
	// KindSession is the post-binding random token issued to both parties
	// of a fresh binding (Section IV-B).
	KindSession
	// KindDelegation is a scoped, expiring credential minted from a
	// delegation grant (owner → guest → sub-guest chains). Owner is the
	// grantee account the token speaks for; Subject is the device, so
	// revoking a binding retires every delegation token with it.
	KindDelegation
)

// String implements fmt.Stringer using the paper's notation.
func (k Kind) String() string {
	switch k {
	case KindUser:
		return "UserToken"
	case KindDevice:
		return "DevToken"
	case KindBind:
		return "BindToken"
	case KindSession:
		return "SessionToken"
	case KindDelegation:
		return "DelegationToken"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Token is an issued credential. The Value is the only part that travels on
// the wire; Owner and Subject are cloud-side metadata.
type Token struct {
	// Value is the opaque random credential string.
	Value string
	// Kind is the credential family.
	Kind Kind
	// Owner is the account the token was issued to (the user who logged
	// in, or who requested a device/bind token).
	Owner string
	// Subject is the entity the token speaks for: the user ID for user
	// tokens, the device ID for device/bind/session tokens.
	Subject string
	// IssuedAt is the issuing time.
	IssuedAt time.Time
	// ExpiresAt is the expiry time; zero means no expiry.
	ExpiresAt time.Time
}

// Expired reports whether the token is past its expiry at time now.
func (t Token) Expired(now time.Time) bool {
	return !t.ExpiresAt.IsZero() && now.After(t.ExpiresAt)
}

// Verification errors.
var (
	// ErrUnknownToken is returned for values that were never issued or
	// were revoked.
	ErrUnknownToken = errors.New("token: unknown or revoked token")
	// ErrWrongKind is returned when a valid token of another family is
	// presented.
	ErrWrongKind = errors.New("token: wrong token kind")
	// ErrExpired is returned for tokens past their expiry.
	ErrExpired = errors.New("token: expired")
)

// Issuer issues and verifies tokens. It is safe for concurrent use: the
// verify path (the per-message hot path on the cloud) takes only a read
// lock, so concurrent verifications never serialize against each other —
// only against issuance and revocation.
type Issuer struct {
	mu     sync.RWMutex
	tokens map[string]Token
	now    func() time.Time
	random func([]byte) error
	// entropy is where random writes a draw, guarded by mu: a slice of
	// a local array handed to an injected source would move to the heap
	// once per token.
	entropy [16]byte
}

// Option configures an Issuer.
type Option interface {
	apply(*Issuer)
}

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(i *Issuer) { i.now = o.now }

// WithClock injects a clock, for deterministic tests.
func WithClock(now func() time.Time) Option { return clockOption{now: now} }

type randomOption struct{ read func([]byte) error }

func (o randomOption) apply(i *Issuer) { i.random = o.read }

// WithRandom injects an entropy source, for deterministic tests.
func WithRandom(read func([]byte) error) Option { return randomOption{read: read} }

// NewIssuer returns a ready Issuer backed by crypto/rand and the system
// clock unless overridden by options.
func NewIssuer(opts ...Option) *Issuer {
	iss := &Issuer{
		tokens: make(map[string]Token),
		now:    time.Now,
		random: func(b []byte) error {
			_, err := rand.Read(b)
			return err
		},
	}
	for _, o := range opts {
		o.apply(iss)
	}
	return iss
}

// Issue creates and registers a fresh token. A zero ttl means no expiry.
func (i *Issuer) Issue(kind Kind, owner, subject string, ttl time.Duration) (Token, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	value, err := i.freshValueLocked()
	if err != nil {
		return Token{}, fmt.Errorf("issue %v: %w", kind, err)
	}
	now := i.now()
	tok := Token{
		Value:    value,
		Kind:     kind,
		Owner:    owner,
		Subject:  subject,
		IssuedAt: now,
	}
	if ttl > 0 {
		tok.ExpiresAt = now.Add(ttl)
	}
	i.tokens[value] = tok
	return tok, nil
}

// Verify checks that value is a live token of the given kind and returns
// its metadata. Comparison against the stored credential is constant-time.
func (i *Issuer) Verify(kind Kind, value string) (Token, error) {
	i.mu.RLock()
	defer i.mu.RUnlock()
	tok, ok := i.lookupLocked(value)
	if !ok {
		return Token{}, ErrUnknownToken
	}
	if tok.Kind != kind {
		return Token{}, fmt.Errorf("%w: have %v, want %v", ErrWrongKind, tok.Kind, kind)
	}
	if tok.Expired(i.now()) {
		return Token{}, ErrExpired
	}
	return tok, nil
}

// Resolve checks that value is a live token unexpired at now and
// returns its metadata whatever its kind. The control-plane hot path
// dispatches on the returned Kind in a single lookup instead of probing
// kind by kind — a failed probe would pay a lock round trip and an
// allocated kind-mismatch error per wrong guess. The caller supplies
// now so one clock read per request covers both the credential's expiry
// and any downstream grant-expiry checks.
func (i *Issuer) Resolve(value string, now time.Time) (Token, error) {
	i.mu.RLock()
	defer i.mu.RUnlock()
	tok, ok := i.lookupLocked(value)
	if !ok {
		return Token{}, ErrUnknownToken
	}
	if tok.Expired(now) {
		return Token{}, ErrExpired
	}
	return tok, nil
}

// Revoke invalidates a token. Revoking an unknown value is a no-op.
func (i *Issuer) Revoke(value string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.tokens, value)
}

// RevokeSubject invalidates every token of the given kind whose subject
// matches, returning how many were revoked. The cloud uses this to retire
// session tokens when a binding is revoked.
func (i *Issuer) RevokeSubject(kind Kind, subject string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int
	for value, tok := range i.tokens {
		if tok.Kind == kind && tok.Subject == subject {
			delete(i.tokens, value)
			n++
		}
	}
	return n
}

// RevokeOwnedSubject invalidates every token of the given kind issued to
// owner for subject, returning how many were revoked. Cascade revocation
// of a delegation grant uses it to retire exactly the severed grantees'
// tokens without touching sibling grants on the same device.
func (i *Issuer) RevokeOwnedSubject(kind Kind, owner, subject string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int
	for value, tok := range i.tokens {
		if tok.Kind == kind && tok.Owner == owner && tok.Subject == subject {
			delete(i.tokens, value)
			n++
		}
	}
	return n
}

// Export returns every live token, for persistence. The order is
// unspecified.
func (i *Issuer) Export() []Token {
	i.mu.RLock()
	defer i.mu.RUnlock()
	out := make([]Token, 0, len(i.tokens))
	for _, tok := range i.tokens {
		out = append(out, tok)
	}
	return out
}

// Import replaces the issuer's live token set, for restoring a persisted
// snapshot. Tokens with empty values are rejected.
func (i *Issuer) Import(tokens []Token) error {
	for _, tok := range tokens {
		if tok.Value == "" {
			return errors.New("token: import: empty token value")
		}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tokens = make(map[string]Token, len(tokens))
	for _, tok := range tokens {
		i.tokens[tok.Value] = tok
	}
	return nil
}

// Len reports how many live tokens the issuer currently tracks.
func (i *Issuer) Len() int {
	i.mu.RLock()
	defer i.mu.RUnlock()
	return len(i.tokens)
}

// lookupLocked finds the token for value using a constant-time comparison
// over candidate keys, so the emulated cloud does not leak token prefixes
// through timing (the property the paper's "random data" credentials rely
// on). i.mu must be held, at least for reading.
func (i *Issuer) lookupLocked(value string) (Token, bool) {
	// Map lookup alone would be variable-time on the key; compare the
	// stored copy explicitly in constant time as the final gate.
	tok, ok := i.tokens[value]
	if !ok {
		return Token{}, false
	}
	if subtle.ConstantTimeCompare([]byte(tok.Value), []byte(value)) != 1 {
		return Token{}, false
	}
	return tok, true
}

// freshValueLocked produces a unique 128-bit random hex string. i.mu is
// held for writing, so the collision check and the caller's insert are
// one critical section.
func (i *Issuer) freshValueLocked() (string, error) {
	var text [2 * len(i.entropy)]byte
	for attempt := 0; attempt < 4; attempt++ {
		if err := i.random(i.entropy[:]); err != nil {
			return "", fmt.Errorf("read entropy: %w", err)
		}
		hex.Encode(text[:], i.entropy[:])
		if _, exists := i.tokens[string(text[:])]; !exists {
			return string(text[:]), nil
		}
	}
	return "", errors.New("token: entropy source keeps colliding")
}
