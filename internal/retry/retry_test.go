package retry

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// scripted is a minimal cloud stub: each Bind/Unbind/Login delivery pops
// the next scripted error (nil = success) and records the request it saw.
// Unimplemented transport.Cloud methods panic via the nil embed.
type scripted struct {
	transport.Cloud

	errs     []error
	calls    int
	bindKeys []string
}

func (s *scripted) next() error {
	s.calls++
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

func (s *scripted) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	if err := s.next(); err != nil {
		return protocol.LoginResponse{}, err
	}
	return protocol.LoginResponse{UserToken: "tok"}, nil
}

func (s *scripted) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	s.bindKeys = append(s.bindKeys, req.IdempotencyKey)
	if err := s.next(); err != nil {
		return protocol.BindResponse{}, err
	}
	return protocol.BindResponse{BoundUser: "u"}, nil
}

func (s *scripted) HandleUnbind(req protocol.UnbindRequest) error {
	s.bindKeys = append(s.bindKeys, req.IdempotencyKey)
	return s.next()
}

// noSleep is an injected Sleep for tests that should not wait in real time.
func noSleep(time.Duration) {}

func errUnavailable(n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("drop %d: %w", i, transport.ErrUnavailable)
	}
	return errs
}

// TestRetryRecoversFromTransientLoss proves a call that fails twice and
// then succeeds is transparent to the caller.
func TestRetryRecoversFromTransientLoss(t *testing.T) {
	stub := &scripted{errs: errUnavailable(2)}
	tr := Wrap(stub, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	resp, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatalf("login through lossy transport: %v", err)
	}
	if resp.UserToken != "tok" {
		t.Errorf("token = %q", resp.UserToken)
	}
	if stub.calls != 3 {
		t.Errorf("deliveries = %d, want 3", stub.calls)
	}
}

// TestRetryBoundedAttempts proves the attempt budget is a hard cap and
// the last transport error surfaces to the caller.
func TestRetryBoundedAttempts(t *testing.T) {
	stub := &scripted{errs: errUnavailable(100)}
	tr := Wrap(stub, Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	_, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("error = %v, want ErrUnavailable", err)
	}
	if stub.calls != 4 {
		t.Errorf("deliveries = %d, want exactly MaxAttempts", stub.calls)
	}
}

// TestRetryProtocolErrorsAreFinal proves a wire-coded error — the cloud's
// definitive answer, delivered intact — is never redelivered.
func TestRetryProtocolErrorsAreFinal(t *testing.T) {
	stub := &scripted{errs: []error{fmt.Errorf("cloud: %w", protocol.ErrAuthFailed)}}
	tr := Wrap(stub, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	_, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "bad"})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("error = %v, want ErrAuthFailed", err)
	}
	if stub.calls != 1 {
		t.Errorf("deliveries = %d, want 1 (protocol errors are final)", stub.calls)
	}
}

// TestRetryStableIdempotencyKey proves one logical bind carries one key
// across every delivery, and distinct logical binds carry distinct keys.
func TestRetryStableIdempotencyKey(t *testing.T) {
	stub := &scripted{errs: errUnavailable(2)}
	tr := Wrap(stub, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	if _, err := tr.HandleBind(protocol.BindRequest{DeviceID: "d"}); err != nil {
		t.Fatal(err)
	}
	if len(stub.bindKeys) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(stub.bindKeys))
	}
	first := stub.bindKeys[0]
	if first == "" {
		t.Fatal("bind delivered without idempotency key")
	}
	for i, k := range stub.bindKeys {
		if k != first {
			t.Errorf("delivery %d key %q != first delivery key %q", i, k, first)
		}
	}

	if _, err := tr.HandleBind(protocol.BindRequest{DeviceID: "d"}); err != nil {
		t.Fatal(err)
	}
	if second := stub.bindKeys[len(stub.bindKeys)-1]; second == first {
		t.Errorf("second logical bind reused key %q", second)
	}
}

// TestRetryCallerKeyWins proves a caller-chosen key is passed through
// untouched, so app-level dedup domains survive the wrapper.
func TestRetryCallerKeyWins(t *testing.T) {
	stub := &scripted{}
	tr := Wrap(stub, Policy{MaxAttempts: 3, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	if err := tr.HandleUnbind(protocol.UnbindRequest{DeviceID: "d", IdempotencyKey: "mine"}); err != nil {
		t.Fatal(err)
	}
	if stub.bindKeys[0] != "mine" {
		t.Errorf("delivered key %q, want caller's", stub.bindKeys[0])
	}
}

// TestRetryCloseAbortsBackoff proves Close unblocks an in-flight wait:
// the call returns promptly with a typed errClosed still carrying the last
// transport error.
func TestRetryCloseAbortsBackoff(t *testing.T) {
	stub := &scripted{errs: errUnavailable(100)}
	// No Sleep injection: real timers, long enough that only Close can
	// explain a prompt return.
	tr := Wrap(stub, Policy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour, Seed: 1})

	done := make(chan error, 1)
	go func() {
		_, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call reach its backoff wait
	tr.Close()

	select {
	case err := <-done:
		if !errors.Is(err, errClosed) {
			t.Errorf("error = %v, want errClosed", err)
		}
		if !errors.Is(err, transport.ErrUnavailable) {
			t.Errorf("error = %v, want the last transport error preserved", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not abort the backoff wait")
	}
}

// TestRetryCloseDuringInjectedSleep proves the Close contract holds on the
// injected-clock path too: a Close that lands while (or after) an injected
// Sleep runs is observed before the next delivery, so the call aborts with
// errClosed instead of burning through its remaining attempts.
func TestRetryCloseDuringInjectedSleep(t *testing.T) {
	stub := &scripted{errs: errUnavailable(100)}
	var tr *Transport
	tr = Wrap(stub, Policy{
		MaxAttempts: 10, BaseDelay: time.Millisecond, Seed: 1,
		Sleep: func(time.Duration) { tr.Close() },
	})

	_, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if !errors.Is(err, errClosed) {
		t.Fatalf("error = %v, want errClosed", err)
	}
	if stub.calls != 1 {
		t.Errorf("deliveries = %d, want 1 (no delivery after Close)", stub.calls)
	}
}

// TestRetryUncappedBackoffSaturates proves an uncapped backoff
// (MaxDelay 0) stops growing at the largest wait instead of wrapping
// round: past the attempt where BaseDelay's doubling overflows, no wait
// collapses to zero (a hot retry loop) or below the base delay.
func TestRetryUncappedBackoffSaturates(t *testing.T) {
	const base = 50 * time.Millisecond
	var waits []time.Duration
	stub := &scripted{errs: errUnavailable(100)}
	tr := Wrap(stub, Policy{
		MaxAttempts: 70, BaseDelay: base, Seed: 1,
		Sleep: func(d time.Duration) { waits = append(waits, d) },
	})
	defer tr.Close()

	if _, err := tr.Login(protocol.LoginRequest{UserID: "u", Password: "p"}); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("error = %v, want ErrUnavailable", err)
	}
	if len(waits) != 69 {
		t.Fatalf("waits = %d, want 69 (one before each retry)", len(waits))
	}
	for i, d := range waits[30:] {
		if d < base {
			t.Errorf("wait before attempt %d = %v, want at least the base delay %v", i+32, d, base)
		}
	}
}

// TestRetryAllocatesNothing holds the retry layer's own path at zero: a
// successful bare status, and an unbind that already carries the
// caller's key, cost no allocation through the wrapper.
func TestRetryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr := Wrap(quiet{}, Policy{MaxAttempts: 3, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	status := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: "d"}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := tr.HandleStatus(status); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("bare status through retry = %.1f allocs/op, want 0", avg)
	}
	unbind := protocol.UnbindRequest{DeviceID: "d", IdempotencyKey: "mine"}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := tr.HandleUnbind(unbind); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("keyed unbind through retry = %.1f allocs/op, want 0", avg)
	}
}

// quiet answers a status and an unbind with success and records nothing.
type quiet struct{ transport.Cloud }

func (quiet) HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error) {
	return protocol.StatusResponse{}, nil
}

func (quiet) HandleUnbind(protocol.UnbindRequest) error { return nil }

// TestRetryKeysNotBareCounters proves minted keys are not a guessable
// global sequence: wrappers with different seeds produce different keys at
// the same sequence position, and two wrappers never share a key even in
// one process.
func TestRetryKeysNotBareCounters(t *testing.T) {
	keysFor := func(seed int64) []string {
		stub := &scripted{}
		tr := Wrap(stub, Policy{MaxAttempts: 1, Seed: seed, Sleep: noSleep})
		defer tr.Close()
		for i := 0; i < 3; i++ {
			if _, err := tr.HandleBind(protocol.BindRequest{DeviceID: "d"}); err != nil {
				t.Fatal(err)
			}
		}
		return stub.bindKeys
	}

	a, b := keysFor(1), keysFor(2)
	seen := map[string]bool{}
	for _, k := range append(append([]string{}, a...), b...) {
		if seen[k] {
			t.Errorf("key %q minted twice across wrappers", k)
		}
		seen[k] = true
	}
	for i := range a {
		if a[i] == fmt.Sprintf("retry-1-%d", i+1) || a[i] == fmt.Sprintf("retry-2-%d", i+1) {
			t.Errorf("key %q is a bare instance/sequence counter", a[i])
		}
	}
}

// failAfterOnce delivers every call to the real cloud but swallows the
// response of the first n Bind deliveries — the at-least-once hazard: the
// cloud binds, the caller sees a transport error and retries.
type failAfterOnce struct {
	transport.Cloud

	remaining atomic.Int64
}

func (f *failAfterOnce) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	resp, err := f.Cloud.HandleBind(req)
	if err == nil && f.remaining.Add(-1) >= 0 {
		return protocol.BindResponse{}, fmt.Errorf("response lost: %w", transport.ErrUnavailable)
	}
	return resp, err
}

// TestRetryRedeliveredBindBindsExactlyOnce is the end-to-end exact-once
// assertion: a bind whose first delivery succeeded but whose response was
// lost is retried with the same idempotency key, and the cloud answers the
// redelivery from its idempotency log — one bind transition, not two, and
// the caller still gets the recorded response.
func TestRetryRedeliveredBindBindsExactlyOnce(t *testing.T) {
	design := core.DesignSpec{
		Name:        "retry-e2e",
		DeviceAuth:  core.AuthDevID,
		Binding:     core.BindACLApp,
		UnbindForms: []core.UnbindForm{core.UnbindDevIDUserToken},
	}
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: "d", FactorySecret: "s"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(design, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}

	lossy := &failAfterOnce{Cloud: svc}
	lossy.remaining.Store(1)
	tr := Wrap(lossy, Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1, Sleep: noSleep})
	defer tr.Close()

	resp, err := tr.HandleBind(protocol.BindRequest{DeviceID: "d", UserToken: login.UserToken})
	if err != nil {
		t.Fatalf("bind through lossy transport: %v", err)
	}
	if resp.BoundUser != "u" {
		t.Errorf("replayed response bound user = %q, want %q", resp.BoundUser, "u")
	}

	binds := 0
	for _, tr := range svc.ShadowTrace("d") {
		if tr.Event == core.EventBind {
			binds++
		}
	}
	if binds != 1 {
		t.Errorf("bind transitions = %d, want exactly 1", binds)
	}
	stats := svc.Stats()
	if stats.BindsDeduplicated != 1 {
		t.Errorf("BindsDeduplicated = %d, want 1", stats.BindsDeduplicated)
	}

	// The redelivered unbind path: first delivery revokes, the retry is
	// answered from the log instead of ErrNotBound.
	lossyUnbind := &failAfterOnceUnbind{Cloud: svc}
	lossyUnbind.remaining.Store(1)
	tru := Wrap(lossyUnbind, Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 2, Sleep: noSleep})
	defer tru.Close()
	if err := tru.HandleUnbind(protocol.UnbindRequest{DeviceID: "d", UserToken: login.UserToken}); err != nil {
		t.Fatalf("unbind through lossy transport: %v", err)
	}
	if got := svc.Stats().UnbindsDeduplicated; got != 1 {
		t.Errorf("UnbindsDeduplicated = %d, want 1", got)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "" {
		t.Errorf("device still bound to %q after unbind", st.BoundUser)
	}
}

// failAfterOnceUnbind swallows the first successful Unbind acknowledgement.
type failAfterOnceUnbind struct {
	transport.Cloud

	remaining atomic.Int64
}

func (f *failAfterOnceUnbind) HandleUnbind(req protocol.UnbindRequest) error {
	err := f.Cloud.HandleUnbind(req)
	if err == nil && f.remaining.Add(-1) >= 0 {
		return fmt.Errorf("ack lost: %w", transport.ErrUnavailable)
	}
	return err
}
