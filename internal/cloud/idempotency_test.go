package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// countBinds tallies accepted bind transitions in a device's trace.
func countBinds(svc *Service, deviceID string) int {
	n := 0
	for _, tr := range svc.ShadowTrace(deviceID) {
		if tr.Event == core.EventBind {
			n++
		}
	}
	return n
}

// TestBindIdempotencyReplay proves a redelivered bind is answered from the
// log verbatim: same response, no second state transition, dedup counted.
func TestBindIdempotencyReplay(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())

	first, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, IdempotencyKey: "k1",
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, IdempotencyKey: "k1",
	})
	if err != nil {
		t.Fatalf("redelivered bind: %v", err)
	}
	if replay != first {
		t.Errorf("replayed response %+v differs from recorded %+v", replay, first)
	}
	if got := countBinds(svc, testDevice); got != 1 {
		t.Errorf("bind transitions = %d, want 1", got)
	}
	if got := svc.Stats().BindsDeduplicated; got != 1 {
		t.Errorf("BindsDeduplicated = %d, want 1", got)
	}
}

// TestBindReplaySurvivesSingleUseToken is the reason replay must run
// before credential evaluation: a capability bind token is revoked on
// first acceptance, so re-evaluating the redelivery would reject a bind
// that already succeeded.
func TestBindReplaySurvivesSingleUseToken(t *testing.T) {
	d := devIDDesign()
	d.Name = "capability-replay"
	d.Binding = core.BindCapability
	svc, _, victim, _ := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	tok, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: victim, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.BindRequest{
		DeviceID: testDevice, BindToken: tok.BindToken,
		BindProof: protocol.BindProof(testSecret, tok.BindToken),
		Sender:    core.SenderDevice, IdempotencyKey: "cap-1",
	}
	first, err := svc.HandleBind(req)
	if err != nil {
		t.Fatal(err)
	}
	// The token is now revoked; only the idempotency log can answer the
	// redelivery.
	replay, err := svc.HandleBind(req)
	if err != nil {
		t.Fatalf("redelivery after token revocation: %v", err)
	}
	if replay != first {
		t.Errorf("replayed response %+v differs from recorded %+v", replay, first)
	}
	// A genuinely new bind with the spent token still fails.
	fresh := req
	fresh.IdempotencyKey = "cap-2"
	if _, err := svc.HandleBind(fresh); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("token reuse under a new key = %v, want ErrAuthFailed", err)
	}
	if got := countBinds(svc, testDevice); got != 1 {
		t.Errorf("bind transitions = %d, want 1", got)
	}
}

// TestUnbindIdempotencyReplay proves the redelivered unbind reports the
// recorded success instead of ErrNotBound, and that failed attempts are
// never recorded — a retry after a rejection re-evaluates honestly.
func TestUnbindIdempotencyReplay(t *testing.T) {
	svc, _, victim, attacker := newTestService(t, devIDDesign())

	if _, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, IdempotencyKey: "b1",
	}); err != nil {
		t.Fatal(err)
	}

	// A rejected unbind (wrong user) must not poison its key: the
	// redelivery re-evaluates and is rejected again.
	atk := protocol.UnbindRequest{DeviceID: testDevice, UserToken: attacker, IdempotencyKey: "u-atk"}
	if err := svc.HandleUnbind(atk); err == nil {
		t.Fatal("attacker unbind accepted")
	}
	if err := svc.HandleUnbind(atk); err == nil {
		t.Fatal("attacker unbind accepted on redelivery")
	}

	owner := protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, IdempotencyKey: "u1"}
	if err := svc.HandleUnbind(owner); err != nil {
		t.Fatal(err)
	}
	// Without the log this redelivery would see an unbound device and fail
	// with ErrNotBound — the exact spurious error retries must not surface.
	if err := svc.HandleUnbind(owner); err != nil {
		t.Errorf("redelivered unbind = %v, want recorded success", err)
	}
	if got := svc.Stats().UnbindsDeduplicated; got != 1 {
		t.Errorf("UnbindsDeduplicated = %d, want 1", got)
	}
	// The key is operation-scoped: a bind redelivered under the unbind's
	// key must not replay the unbind's record.
	if _, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, IdempotencyKey: "u1",
	}); err != nil {
		t.Errorf("bind under an unbind's key = %v, want a real bind", err)
	}
	if got := countBinds(svc, testDevice); got != 2 {
		t.Errorf("bind transitions = %d, want 2", got)
	}
}

// TestIdempotencyLogEviction proves the per-shadow log is bounded: the
// oldest record is evicted FIFO past the cap, and the map and order slice
// stay consistent.
func TestIdempotencyLogEviction(t *testing.T) {
	sh := &shadow{}
	for i := 0; i < maxIdemResults+10; i++ {
		sh.recordIdem(fmt.Sprintf("k%d", i), idemResult{op: idemBind})
	}
	if len(sh.idemResults) != maxIdemResults || len(sh.idemOrder) != maxIdemResults {
		t.Fatalf("log size = %d/%d entries, want %d", len(sh.idemResults), len(sh.idemOrder), maxIdemResults)
	}
	if _, ok, _ := sh.replayIdem("k0", idemBind, [32]byte{}); ok {
		t.Error("oldest record survived past the cap")
	}
	if _, ok, _ := sh.replayIdem(fmt.Sprintf("k%d", maxIdemResults+9), idemBind, [32]byte{}); !ok {
		t.Error("newest record missing")
	}
	// Re-recording an existing key must not duplicate it in the order.
	sh.recordIdem(fmt.Sprintf("k%d", maxIdemResults+9), idemResult{op: idemBind})
	if len(sh.idemOrder) != maxIdemResults {
		t.Errorf("order grew to %d on re-record", len(sh.idemOrder))
	}
	// Empty keys are never recorded.
	sh.recordIdem("", idemResult{op: idemBind})
	if _, ok, _ := sh.replayIdem("", idemBind, [32]byte{}); ok {
		t.Error("empty key recorded")
	}
}

// TestBindReplayRequiresMatchingRequest closes the replay oracle: a key is
// not a credential, so a request carrying someone else's key but different
// credential-bearing fields is rejected outright — it neither reads the
// recorded response (and its session token) nor executes and overwrites
// the record. The original sender's redelivery still replays afterwards.
func TestBindReplayRequiresMatchingRequest(t *testing.T) {
	d := devIDDesign()
	d.Name = "replay-oracle"
	d.PostBindingToken = true
	svc, _, victim, attacker := newTestService(t, d)

	victimReq := protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "shared",
	}
	first, err := svc.HandleBind(victimReq)
	if err != nil {
		t.Fatal(err)
	}
	if first.SessionToken == "" {
		t.Fatal("no session token issued")
	}

	// The attacker guessed (or collided on) the victim's key but presents
	// their own credentials: rejected, nothing leaked, nothing recorded.
	stolen, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp, IdempotencyKey: "shared",
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("foreign request under victim's key = %v, want ErrAuthFailed", err)
	}
	if stolen.SessionToken != "" {
		t.Fatalf("victim's session token leaked to a key collision")
	}
	if got := svc.Stats().BindsDeduplicated; got != 0 {
		t.Errorf("BindsDeduplicated = %d after rejected collision, want 0", got)
	}

	// The victim's record is intact: their redelivery replays verbatim.
	replay, err := svc.HandleBind(victimReq)
	if err != nil {
		t.Fatalf("victim redelivery after collision attempt: %v", err)
	}
	if replay != first {
		t.Errorf("replayed response %+v differs from recorded %+v", replay, first)
	}
	if got := countBinds(svc, testDevice); got != 1 {
		t.Errorf("bind transitions = %d, want 1", got)
	}
}

// TestSameUserRebindRecordsReplay proves the idempotent same-user re-bind
// branch records its outcome too: its first delivery consumes the fresh
// capability token, so only the log can answer the redelivery — without
// the record the retry would re-evaluate the spent token and fail with
// auth_failed, the exact spurious failure the retry layer must not surface.
func TestSameUserRebindRecordsReplay(t *testing.T) {
	d := devIDDesign()
	d.Name = "capability-rebind-replay"
	d.Binding = core.BindCapability
	svc, _, victim, _ := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	bindWith := func(key string) (protocol.BindRequest, protocol.BindResponse) {
		t.Helper()
		tok, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: victim, DeviceID: testDevice})
		if err != nil {
			t.Fatal(err)
		}
		req := protocol.BindRequest{
			DeviceID: testDevice, BindToken: tok.BindToken,
			BindProof: protocol.BindProof(testSecret, tok.BindToken),
			Sender:    core.SenderDevice, IdempotencyKey: key,
		}
		resp, err := svc.HandleBind(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, resp
	}

	bindWith("first")
	// Second logical bind by the same, already-bound user with a fresh
	// token: accepted idempotently, token spent.
	rebind, rebindResp := bindWith("second")

	replay, err := svc.HandleBind(rebind)
	if err != nil {
		t.Fatalf("redelivered same-user re-bind = %v, want recorded success", err)
	}
	if replay != rebindResp {
		t.Errorf("replayed response %+v differs from recorded %+v", replay, rebindResp)
	}
	if got := svc.Stats().BindsDeduplicated; got != 1 {
		t.Errorf("BindsDeduplicated = %d, want 1", got)
	}
	if got := countBinds(svc, testDevice); got != 1 {
		t.Errorf("bind transitions = %d, want 1", got)
	}
}

// TestRejectedBindLeavesCapabilityTokenValid proves single-use consumption
// happens only on full acceptance: a policy rejection (here the button
// window) leaves the token valid, so a redelivery re-evaluates to the same
// rejection code instead of drifting to auth_failed, and an honest retry
// after the policy is satisfied can still succeed with the same token.
func TestRejectedBindLeavesCapabilityTokenValid(t *testing.T) {
	d := devIDDesign()
	d.Name = "capability-button"
	d.Binding = core.BindCapability
	d.BindButtonWindow = true
	svc, _, victim, _ := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	tok, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: victim, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.BindRequest{
		DeviceID: testDevice, BindToken: tok.BindToken,
		BindProof: protocol.BindProof(testSecret, tok.BindToken),
		Sender:    core.SenderDevice, IdempotencyKey: "btn-1",
	}

	// No button pressed: rejected, and the redelivery sees the same
	// rejection, not auth_failed on a spent token.
	if _, err := svc.HandleBind(req); !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("bind without button = %v, want ErrOutsideWindow", err)
	}
	if _, err := svc.HandleBind(req); !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("redelivered rejected bind = %v, want ErrOutsideWindow again", err)
	}

	// Button pressed: the untouched token still binds.
	mustStatus(t, svc, protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice, ButtonPressed: true,
	})
	if _, err := svc.HandleBind(req); err != nil {
		t.Fatalf("bind inside window with the same token = %v, want success", err)
	}
	// Now the token is spent: a new logical bind with it fails.
	fresh := req
	fresh.IdempotencyKey = "btn-2"
	if _, err := svc.HandleBind(fresh); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("token reuse after acceptance = %v, want ErrAuthFailed", err)
	}
}

// TestIdemResultFitsMapSlot: a map stores a value of at most 128 bytes
// in its slot (abi.SwissMapMaxElemBytes) and moves a larger one to the
// heap, one allocation per recorded request on the primary and again on
// every replica.
func TestIdemResultFitsMapSlot(t *testing.T) {
	if size := unsafe.Sizeof(idemResult{}); size > 128 {
		t.Fatalf("idemResult is %d bytes: past 128 every recordIdem heap-allocates its map slot; keep large responses behind pointers", size)
	}
}

// TestImportIdemRequiresItsOwnResponse: an imported record carries
// exactly the response its operation replays — a bind its bind reply, a
// status its status reply, a delegate its delegation, unbind and revoke
// none — so a hand-edited snapshot can neither replay an empty reply nor
// smuggle in another operation's. Every operation is tried with every
// combination of the three responses.
func TestImportIdemRequiresItsOwnResponse(t *testing.T) {
	fp := strings.Repeat("ab", 32)
	for op := idemBind; op <= idemRevokeDelegation; op++ {
		for mask := 0; mask < 8; mask++ {
			rec := IdemRecord{Key: "k", Op: uint8(op), Fingerprint: fp}
			if mask&1 != 0 {
				rec.Bind = &protocol.BindResponse{BoundUser: "u"}
			}
			if mask&2 != 0 {
				rec.Status = &protocol.StatusResponse{Bound: true}
			}
			if mask&4 != 0 {
				rec.Delegate = &protocol.DelegateResponse{DelegationToken: "d"}
			}
			want := 0
			switch op {
			case idemBind:
				want = 1
			case idemStatus:
				want = 2
			case idemDelegate:
				want = 4
			}
			err := newShadow(testDevice).importIdem([]IdemRecord{rec})
			if mask == want && err != nil {
				t.Errorf("op %d with its own response refused: %v", op, err)
			}
			if mask != want && !errors.Is(err, protocol.ErrBadRequest) {
				t.Errorf("op %d carrying responses %03b (want %03b) imported: err = %v", op, mask, want, err)
			}
		}
	}
}

// TestIdemExportImportRoundTrip: the records real requests leave — a
// keyed status answered with the shared unbound reply, a bind, a keyed
// status that drained a command, one answered with the shared bound
// reply, a delegation, its revocation and the unbind — export, import
// into a fresh shadow and export again to the same bytes.
func TestIdemExportImportRoundTrip(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "guest@x", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "k-unbound"})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, IdempotencyKey: "k-bind"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim,
		Command: protocol.Command{ID: "c1", Name: "on", Args: map[string]string{"level": "7"}}}); err != nil {
		t.Fatal(err)
	}
	if resp := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		IdempotencyKey: "k-hb"}); len(resp.Commands) != 1 {
		t.Fatalf("keyed heartbeat drained %d commands, want 1", len(resp.Commands))
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "k-bound"})
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: victim, Grantee: "guest@x",
		Scopes: []string{"read"}, TTLSeconds: 60, IdempotencyKey: "k-deleg"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: victim,
		Grantee: "guest@x", IdempotencyKey: "k-revoke"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, IdempotencyKey: "k-unbind"}); err != nil {
		t.Fatal(err)
	}
	sh, ok := svc.store.peek(testDevice)
	if !ok {
		t.Fatal("no shadow")
	}
	sh.mu.Lock()
	exported := sh.exportIdem()
	sh.mu.Unlock()
	if len(exported) != 7 {
		t.Fatalf("exported %d idempotency records, want 7", len(exported))
	}
	fresh := newShadow(testDevice)
	if err := fresh.importIdem(exported); err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(exported)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(fresh.exportIdem())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("idempotency records changed across export/import:\nbefore: %s\nafter:  %s", first, again)
	}
}

// TestStatusReplayMatchesFirstDelivery: a redelivered keyed status
// answers exactly what its first delivery answered, whether the reply
// was recorded as the shared bound-only one or as its own copy — bound
// and unbound, plain, with delivered commands or user data, and with a
// session nonce.
func TestStatusReplayMatchesFirstDelivery(t *testing.T) {
	session := devIDDesign()
	session.Name = "devid-session"
	session.DataRequiresSession = true
	heartbeat := func(key string) protocol.StatusRequest {
		return protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: key}
	}
	register := func(key string) protocol.StatusRequest {
		return protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice, IdempotencyKey: key}
	}
	for _, tc := range []struct {
		name   string
		design core.DesignSpec
		bound  bool
		before func(*Service, string) error // run after the bind, if any
		req    protocol.StatusRequest
		shared *protocol.StatusResponse
	}{
		{name: "unbound", design: devIDDesign(), req: heartbeat("k"), shared: &replyUnbound},
		{name: "bound", design: devIDDesign(), bound: true, req: heartbeat("k"), shared: &replyBound},
		{name: "bound with a command", design: devIDDesign(), bound: true, req: heartbeat("k"),
			before: func(svc *Service, tok string) error {
				_, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: tok,
					Command: protocol.Command{ID: "c1", Name: "on"}})
				return err
			}},
		{name: "bound with user data", design: devIDDesign(), bound: true, req: heartbeat("k"),
			before: func(svc *Service, tok string) error {
				return svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: tok,
					Data: protocol.UserData{Kind: "schedule", Body: "07:00"}})
			}},
		{name: "unbound with a nonce", design: session, req: register("k")},
		{name: "bound with a nonce", design: session, bound: true, req: register("k")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, _, victim, _ := newTestService(t, tc.design)
			mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
			if tc.bound {
				if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.before != nil {
				if err := tc.before(svc, victim); err != nil {
					t.Fatal(err)
				}
			}
			first := mustStatus(t, svc, tc.req)
			if first.Bound != tc.bound {
				t.Fatalf("first delivery answered bound=%v, want %v", first.Bound, tc.bound)
			}
			replay := mustStatus(t, svc, tc.req)
			if !reflect.DeepEqual(replay, first) {
				t.Errorf("replay %#v, first delivery %#v", replay, first)
			}
			if got := svc.Stats().StatusDeduplicated; got != 1 {
				t.Errorf("StatusDeduplicated = %d, want 1", got)
			}
			sh, _ := svc.store.peek(testDevice)
			sh.mu.Lock()
			kept := sh.idemResults[tc.req.IdempotencyKey].status
			sh.mu.Unlock()
			if shared := kept == &replyBound || kept == &replyUnbound; shared != (tc.shared != nil) || (shared && kept != tc.shared) {
				t.Errorf("recorded reply %p %#v: shared = %v, want the shared %v reply", kept, *kept, shared, tc.shared != nil)
			}
		})
	}
	if !reflect.DeepEqual(replyBound, protocol.StatusResponse{Bound: true}) || !reflect.DeepEqual(replyUnbound, protocol.StatusResponse{}) {
		t.Errorf("a shared reply was written through: bound %#v, unbound %#v", replyBound, replyUnbound)
	}
}
