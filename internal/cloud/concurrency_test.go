package cloud

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestUserTokenExpiry covers session expiry: an expired user token stops
// working everywhere and a fresh login recovers.
func TestUserTokenExpiry(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(devIDDesign(), reg, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	svc.userTokenTTL = time.Hour
	tok := loginUser(t, svc, "u@example.com", "pw")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: tok, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	// Keep the device online past the session expiry.
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})

	if _, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: tok, Command: protocol.Command{ID: "x", Name: "on"},
	}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("control with expired token = %v, want ErrAuthFailed", err)
	}

	// A fresh login issues a working token; the binding is unaffected.
	login, err := svc.Login(protocol.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: login.UserToken, Command: protocol.Command{ID: "y", Name: "on"},
	}); err != nil {
		t.Errorf("control after re-login: %v", err)
	}
}

// TestConcurrentMixedTraffic hammers one cloud from many goroutines —
// users, devices and an attacker all at once — to exercise the locking
// under the race detector. Outcome correctness is covered elsewhere; this
// test asserts only that nothing panics, deadlocks, or corrupts counters.
func TestConcurrentMixedTraffic(t *testing.T) {
	reg := NewRegistry()
	const devices = 4
	ids := make([]string, devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%02d", i)
		if err := reg.Add(DeviceRecord{ID: ids[i], FactorySecret: "s" + ids[i]}); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(devIDDesign(), reg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, 4)
	for i := range tokens {
		tokens[i] = loginUser(t, svc, fmt.Sprintf("user-%d@example.com", i), "pw")
	}

	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := ids[w%devices]
			tok := tokens[w%len(tokens)]
			for i := 0; i < perWorker; i++ {
				switch i % 5 {
				case 0:
					_, _ = svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id})
				case 1:
					_, _ = svc.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
				case 2:
					_, _ = svc.HandleControl(protocol.ControlRequest{
						DeviceID: id, UserToken: tok,
						Command: protocol.Command{ID: fmt.Sprintf("c-%d-%d", w, i), Name: "probe"},
					})
				case 3:
					_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
				case 4:
					_, _ = svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id})
				}
			}
		}()
	}
	wg.Wait()

	stats := svc.Stats()
	var statusAttempts int64 = 8 * perWorker / 5 * 2
	if got := stats.StatusAccepted + stats.StatusRejected; got != statusAttempts {
		t.Errorf("status counter total %d, want %d", got, statusAttempts)
	}
	for _, id := range ids {
		st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Valid() {
			t.Errorf("device %s in invalid state %v", id, st.State)
		}
	}
}

// TestShardedStoreStress hammers a 64-device fleet from NumCPU-scaled
// goroutines mixing every hot-path operation — status, bind, unbind,
// control and Stats snapshots — and then audits the sharded store: every
// op must be counted exactly once (no lost atomic updates), every shadow
// must land in a valid state-machine position, and a full Snapshot must
// see the entire fleet. Run under -race this is the lock-ordering and
// counter-atomicity audit for the sharded refactor.
func TestShardedStoreStress(t *testing.T) {
	reg := NewRegistry()
	const devices = 64
	ids := make([]string, devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:00:%02X:%02X", (i>>8)&0xFF, i&0xFF)
		if err := reg.Add(DeviceRecord{ID: ids[i], FactorySecret: "s" + ids[i]}); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(devIDDesign(), reg)
	if err != nil {
		t.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 8 {
		workers = 8
	}
	tokens := make([]string, workers)
	for i := range tokens {
		tokens[i] = loginUser(t, svc, fmt.Sprintf("stress-%d@example.com", i), "pw")
	}

	// Seed every device online so heartbeats and binds have a live fleet.
	for _, id := range ids {
		mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id})
	}

	const perWorker = 250
	var statusOps, bindOps, unbindOps, controlOps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tok := tokens[w]
			for i := 0; i < perWorker; i++ {
				id := ids[(w*perWorker+i)%devices]
				switch i % 5 {
				case 0:
					_, _ = svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id})
					statusOps.Add(1)
				case 1:
					_, _ = svc.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
					bindOps.Add(1)
				case 2:
					_, _ = svc.HandleControl(protocol.ControlRequest{
						DeviceID: id, UserToken: tok,
						Command: protocol.Command{ID: fmt.Sprintf("s-%d-%d", w, i), Name: "probe"},
					})
					controlOps.Add(1)
				case 3:
					_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
					unbindOps.Add(1)
				case 4:
					// Snapshot the counters mid-storm; each read must be a
					// coherent int64 (the race detector catches torn reads).
					_ = svc.Stats()
				}
			}
		}()
	}
	wg.Wait()

	stats := svc.Stats()
	seeded := int64(devices) // the StatusRegister warm-up messages
	if got, want := stats.StatusAccepted+stats.StatusRejected, statusOps.Load()+seeded; got != want {
		t.Errorf("status counter total %d, want %d", got, want)
	}
	if got, want := stats.BindsAccepted+stats.BindsRejected, bindOps.Load(); got != want {
		t.Errorf("bind counter total %d, want %d", got, want)
	}
	if got, want := stats.UnbindsAccepted+stats.UnbindsRejected, unbindOps.Load(); got != want {
		t.Errorf("unbind counter total %d, want %d", got, want)
	}
	if got, want := stats.ControlsQueued+stats.ControlsRejected, controlOps.Load(); got != want {
		t.Errorf("control counter total %d, want %d", got, want)
	}

	snap := svc.Snapshot()
	if len(snap.Shadows) != devices {
		t.Errorf("snapshot holds %d shadows, want %d", len(snap.Shadows), devices)
	}
	for _, ss := range snap.Shadows {
		if !ss.State.Valid() {
			t.Errorf("device %s snapshot in invalid state %v", ss.DeviceID, ss.State)
		}
		if ss.State.BoundToUser() && ss.BoundUser == "" {
			t.Errorf("device %s bound with empty bound user", ss.DeviceID)
		}
		if !ss.State.BoundToUser() && ss.BoundUser != "" {
			t.Errorf("device %s unbound but records bound user %q", ss.DeviceID, ss.BoundUser)
		}
	}
	for _, id := range ids {
		st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Valid() {
			t.Errorf("device %s in invalid state %v", id, st.State)
		}
	}
}
