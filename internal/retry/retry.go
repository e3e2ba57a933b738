// Package retry gives an agent's view of the cloud at-least-once delivery:
// it wraps a transport.Cloud and re-sends failed calls under a capped
// exponential backoff with seeded jitter, so heartbeats, binds and unbinds
// survive a lossy network instead of failing on the first dropped packet.
//
// Retrying a mutation is only safe if redelivery cannot apply it twice, so
// the wrapper stamps every Bind, Unbind, Delegate and RevokeDelegation
// request with a fresh idempotency key (the same key across all attempts
// of one logical request); the cloud deduplicates redeliveries by that
// key. A status carries no key unless its sender gave it one: re-marking
// a device online is a no-op, and agents re-issue commands a lost
// heartbeat response drained. Protocol errors — the cloud's
// definitive application-level answers, recognized by their wire codes —
// are never retried: only transport-level failures are.
package retry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// errClosed is returned (wrapping the last transport error, if any) when
// the wrapper is closed while a call is waiting to retry.
var errClosed = errors.New("retry: transport closed")

// Default policy parameters.
const (
	// DefaultMaxAttempts bounds the total deliveries of one logical call.
	DefaultMaxAttempts = 5
	// DefaultBaseDelay is the first backoff interval.
	DefaultBaseDelay = 50 * time.Millisecond
	// DefaultMaxDelay caps the exponential growth.
	DefaultMaxDelay = 2 * time.Second
)

// Policy describes one agent's retry behaviour.
type Policy struct {
	// MaxAttempts is the total number of deliveries per logical call,
	// including the first (<= 1 means no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Zero means uncapped.
	MaxDelay time.Duration
	// Seed drives the jitter RNG (full jitter: each wait is uniform in
	// [0, backoff]), keeping retry schedules reproducible.
	Seed int64
	// Retryable classifies errors; nil means DefaultRetryable.
	Retryable func(error) bool
	// Sleep waits between attempts; nil means a real Close-interruptible
	// timer. Experiments inject a no-op or clock-advancing sleep.
	Sleep func(time.Duration)
}

// DefaultRetryable retries transport-level failures only: any error that
// carries a protocol wire code is the cloud's final answer for the
// request, delivered intact — retrying it cannot change the outcome.
func DefaultRetryable(err error) bool {
	_, isProtocol := protocol.WireCode(err)
	return !isProtocol
}

// instanceSeq numbers wrapper instances so idempotency keys from different
// agents in one process can never collide.
var instanceSeq atomic.Uint64

// Transport wraps a transport.Cloud with the retry policy: the embedded
// forwarder runs every call through retryHop's attempt loop, and the
// keyed operations stamp their key first. It is safe for concurrent use;
// Close is idempotent and aborts any in-flight backoff waits.
type Transport struct {
	transport.Hopped
	inner  transport.Cloud
	policy Policy

	rngMu sync.Mutex
	rng   *rand.Rand

	keyPrefix string
	keySeq    atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
}

var _ transport.Cloud = (*Transport)(nil)

// Wrap builds a retrying view of inner under the policy.
func Wrap(inner transport.Cloud, p Policy) *Transport {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Transport{
		inner:     inner,
		policy:    p,
		rng:       rng,
		keyPrefix: fmt.Sprintf("retry-%d-%08x", instanceSeq.Add(1), rng.Uint32()),
		done:      make(chan struct{}),
	}
	t.Hopped = transport.NewHopped(retryHop{t})
	return t
}

// Close aborts in-flight backoff waits; subsequent calls still make one
// delivery attempt but never wait to retry.
func (t *Transport) Close() {
	t.closeOnce.Do(func() { close(t.done) })
}

// nextKey mints an idempotency key for one logical mutation. The key pairs
// a monotonic per-wrapper sequence with a draw from the seeded RNG:
// deterministic under a fixed seed (reproducible experiments), but not a
// bare global counter another party can enumerate. The cloud additionally
// pins every key to its request fingerprint, so even a colliding key
// replays nothing.
func (t *Transport) nextKey() string {
	t.rngMu.Lock()
	r := t.rng.Uint64()
	t.rngMu.Unlock()
	return fmt.Sprintf("%s-%d-%016x", t.keyPrefix, t.keySeq.Add(1), r)
}

// backoff returns the jittered wait before retry number attempt (1-based).
// The doubling saturates at the largest Duration, so an uncapped backoff
// never wraps round to a zero wait.
func (t *Transport) backoff(attempt int) time.Duration {
	d := t.policy.BaseDelay
	if shift := uint(attempt - 1); d > 0 && (shift >= 63 || d > math.MaxInt64>>shift) {
		d = math.MaxInt64
	} else {
		d <<= shift
	}
	if t.policy.MaxDelay > 0 && (d > t.policy.MaxDelay || d <= 0) {
		d = t.policy.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	if d == math.MaxInt64 {
		return time.Duration(t.rng.Int63())
	}
	return time.Duration(t.rng.Int63n(int64(d) + 1))
}

// wait sleeps for the backoff, returning false if the transport closed
// first. With an injected Sleep, done is re-checked after the sleep
// returns, so Close during (or between) injected sleeps still aborts the
// attempt loop — the Close contract holds on the injected-clock path too.
func (t *Transport) wait(d time.Duration) bool {
	if t.policy.Sleep == nil && d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return true
		case <-t.done:
			return false
		}
	}
	if t.closed() {
		return false
	}
	if t.policy.Sleep != nil {
		t.policy.Sleep(d)
	}
	return !t.closed()
}

// closed reports whether Close has run.
func (t *Transport) closed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// retryHop sends every attempt to the wrapped cloud; End re-runs an
// attempt that failed retryably while attempts are left, after its
// backoff.
type retryHop struct{ t *Transport }

func (h retryHop) Begin(transport.Op, string) (transport.Cloud, error) { return h.t.inner, nil }

func (h retryHop) End(op transport.Op, attempt int, err error) (bool, error) {
	t := h.t
	if err == nil || !t.policy.Retryable(err) || attempt >= t.policy.MaxAttempts {
		return false, err
	}
	if !t.wait(t.backoff(attempt)) {
		return false, fmt.Errorf("retry: %s after %d attempts: %w (last: %w)", op, attempt, errClosed, err)
	}
	return true, nil
}

// HandleBind implements transport.Cloud, stamping one idempotency key
// across every delivery attempt of this logical bind.
func (t *Transport) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return t.Hopped.HandleBind(req)
}

// HandleUnbind implements transport.Cloud, stamping one idempotency key
// across every delivery attempt of this logical unbind.
func (t *Transport) HandleUnbind(req protocol.UnbindRequest) error {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return t.Hopped.HandleUnbind(req)
}

// HandleDelegate implements transport.Cloud, stamping one idempotency
// key across every delivery attempt of this logical delegation — a
// retried delegate must replay the token the first delivery minted, not
// re-grant.
func (t *Transport) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return t.Hopped.HandleDelegate(req)
}

// HandleRevokeDelegation implements transport.Cloud, stamping one
// idempotency key across every delivery attempt — a redelivered revoke
// must not sever a grant issued after its first delivery.
func (t *Transport) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return t.Hopped.HandleRevokeDelegation(req)
}
