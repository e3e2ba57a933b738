// Package retry gives an agent's view of the cloud at-least-once delivery:
// it wraps a transport.Cloud and re-sends failed calls under a capped
// exponential backoff with seeded jitter, so heartbeats, binds and unbinds
// survive a lossy network instead of failing on the first dropped packet.
//
// Retrying a mutation is only safe if redelivery cannot apply it twice, so
// the wrapper stamps every Bind and Unbind request with a fresh
// idempotency key (the same key across all attempts of one logical
// request); the cloud deduplicates redeliveries by that key. Protocol
// errors — the cloud's definitive application-level answers, recognized by
// their wire codes — are never retried: only transport-level failures are.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// ErrClosed is returned (wrapping the last transport error, if any) when
// the wrapper is closed while a call is waiting to retry.
var ErrClosed = errors.New("retry: transport closed")

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

// Transport wraps a transport.Cloud with the retry policy. It is safe for
// concurrent use; Close is idempotent and aborts any in-flight backoff
// waits.
type Transport struct {
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
	return &Transport{
		inner:     inner,
		policy:    p,
		rng:       rng,
		keyPrefix: fmt.Sprintf("retry-%d-%08x", instanceSeq.Add(1), rng.Uint32()),
		done:      make(chan struct{}),
	}
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
func (t *Transport) backoff(attempt int) time.Duration {
	d := t.policy.BaseDelay << (attempt - 1)
	if t.policy.MaxDelay > 0 && (d > t.policy.MaxDelay || d <= 0) {
		d = t.policy.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return time.Duration(t.rng.Int63n(int64(d) + 1))
}

// wait sleeps for the backoff, returning false if the transport closed
// first. With an injected Sleep, done is re-checked after the sleep
// returns, so Close during (or between) injected sleeps still aborts the
// attempt loop — the Close contract holds on the injected-clock path too.
func (t *Transport) wait(d time.Duration) bool {
	if t.policy.Sleep != nil {
		select {
		case <-t.done:
			return false
		default:
		}
		t.policy.Sleep(d)
		select {
		case <-t.done:
			return false
		default:
			return true
		}
	}
	if d <= 0 {
		select {
		case <-t.done:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.done:
		return false
	}
}

// do drives one logical call through the attempt loop.
func do[T any](t *Transport, op transport.Op, call func() (T, error)) (T, error) {
	var out T
	var err error
	for attempt := 1; ; attempt++ {
		out, err = call()
		if err == nil || !t.policy.Retryable(err) || attempt >= t.policy.MaxAttempts {
			return out, err
		}
		if !t.wait(t.backoff(attempt)) {
			var zero T
			return zero, fmt.Errorf("retry: %s after %d attempts: %w (last: %w)", op, attempt, ErrClosed, err)
		}
	}
}

// doErr adapts do for response-less operations.
func doErr(t *Transport, op transport.Op, call func() error) error {
	_, err := do(t, op, func() (struct{}, error) { return struct{}{}, call() })
	return err
}

// RegisterUser implements transport.Cloud.
func (t *Transport) RegisterUser(req protocol.RegisterUserRequest) error {
	return doErr(t, transport.OpRegisterUser, func() error { return t.inner.RegisterUser(req) })
}

// Login implements transport.Cloud.
func (t *Transport) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	return do(t, transport.OpLogin, func() (protocol.LoginResponse, error) { return t.inner.Login(req) })
}

// RequestDeviceToken implements transport.Cloud.
func (t *Transport) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	return do(t, transport.OpDeviceToken, func() (protocol.DeviceTokenResponse, error) { return t.inner.RequestDeviceToken(req) })
}

// RequestBindToken implements transport.Cloud.
func (t *Transport) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	return do(t, transport.OpBindToken, func() (protocol.BindTokenResponse, error) { return t.inner.RequestBindToken(req) })
}

// HandleStatus implements transport.Cloud. Status messages are naturally
// idempotent — re-marking a device online is a no-op — so they carry no
// key. A redelivered heartbeat can still lose commands drained by a
// delivery whose response vanished; agents re-issue unacknowledged
// commands, mirroring real apps.
func (t *Transport) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	return do(t, transport.OpStatus, func() (protocol.StatusResponse, error) { return t.inner.HandleStatus(req) })
}

// HandleStatusBatch implements transport.Cloud, stamping a fresh
// idempotency key on every item that lacks one — the same keys across all
// delivery attempts of this logical batch. A batch that was delivered but
// whose response vanished is then answered item-by-item from the cloud's
// replay log on redelivery: commands drained by the lost delivery are
// re-delivered and piggybacked readings are not ingested twice.
func (t *Transport) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	if len(req.Items) > 0 {
		// Copy the item slice before stamping: the caller may retain (and
		// reuse) its slice, and a retried request must carry the same keys,
		// not freshly minted ones.
		items := make([]protocol.StatusRequest, len(req.Items))
		copy(items, req.Items)
		for i := range items {
			if items[i].IdempotencyKey == "" {
				items[i].IdempotencyKey = t.nextKey()
			}
		}
		req.Items = items
	}
	return do(t, transport.OpStatusBatch, func() (protocol.StatusBatchResponse, error) { return t.inner.HandleStatusBatch(req) })
}

// HandleBind implements transport.Cloud, stamping one idempotency key
// across every delivery attempt of this logical bind.
func (t *Transport) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return do(t, transport.OpBind, func() (protocol.BindResponse, error) { return t.inner.HandleBind(req) })
}

// HandleUnbind implements transport.Cloud, stamping one idempotency key
// across every delivery attempt of this logical unbind.
func (t *Transport) HandleUnbind(req protocol.UnbindRequest) error {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return doErr(t, transport.OpUnbind, func() error { return t.inner.HandleUnbind(req) })
}

// HandleControl implements transport.Cloud.
func (t *Transport) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	return do(t, transport.OpControl, func() (protocol.ControlResponse, error) { return t.inner.HandleControl(req) })
}

// PushUserData implements transport.Cloud.
func (t *Transport) PushUserData(req protocol.PushUserDataRequest) error {
	return doErr(t, transport.OpUserData, func() error { return t.inner.PushUserData(req) })
}

// Readings implements transport.Cloud.
func (t *Transport) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	return do(t, transport.OpReadings, func() (protocol.ReadingsResponse, error) { return t.inner.Readings(req) })
}

// HandleShare implements transport.Cloud.
func (t *Transport) HandleShare(req protocol.ShareRequest) error {
	return doErr(t, transport.OpShare, func() error { return t.inner.HandleShare(req) })
}

// Shares implements transport.Cloud.
func (t *Transport) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	return do(t, transport.OpShares, func() (protocol.SharesResponse, error) { return t.inner.Shares(req) })
}

// HandleDelegate implements transport.Cloud, stamping one idempotency
// key across every delivery attempt of this logical delegation — a
// retried delegate must replay the token the first delivery minted, not
// re-grant.
func (t *Transport) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return do(t, transport.OpDelegate, func() (protocol.DelegateResponse, error) { return t.inner.HandleDelegate(req) })
}

// HandleRevokeDelegation implements transport.Cloud, stamping one
// idempotency key across every delivery attempt — a redelivered revoke
// must not sever a grant issued after its first delivery.
func (t *Transport) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = t.nextKey()
	}
	return doErr(t, transport.OpRevokeDelegation, func() error { return t.inner.HandleRevokeDelegation(req) })
}

// ListDelegations implements transport.Cloud.
func (t *Transport) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	return do(t, transport.OpDelegations, func() (protocol.ListDelegationsResponse, error) { return t.inner.ListDelegations(req) })
}

// ShadowState implements transport.Cloud.
func (t *Transport) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	return do(t, transport.OpShadow, func() (protocol.ShadowStateResponse, error) { return t.inner.ShadowState(req) })
}
