package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

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

// TestIdempotencyLogEviction proves the per-shadow log is a bounded FIFO
// ring: past the cap the newest maxIdemResults records survive, oldest
// first, each replaying under its own key; re-recording a logged key
// changes its record in place, neither duplicating nor reordering it;
// an empty key is never recorded.
func TestIdempotencyLogEviction(t *testing.T) {
	sh := &shadow{}
	const extra = 10
	for i := 0; i < maxIdemResults+extra; i++ {
		key := fmt.Sprintf("k%d", i)
		sh.recordIdem(key, sh.idem.find(key), idemResult{op: idemBind, fingerprint: [32]byte{byte(i)}})
	}
	order := func() []string {
		var keys []string
		for _, rec := range sh.exportIdem() {
			keys = append(keys, rec.Key)
		}
		return keys
	}
	var want []string
	for i := extra; i < maxIdemResults+extra; i++ {
		want = append(want, fmt.Sprintf("k%d", i))
	}
	if got := order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %d records %v..., want k%d..k%d oldest first", len(got), got[:min(3, len(got))], extra, maxIdemResults+extra-1)
	}
	for i := 0; i < maxIdemResults+extra; i++ {
		_, _, ok, _ := sh.replayIdem(fmt.Sprintf("k%d", i), idemBind, [32]byte{byte(i)})
		if ok != (i >= extra) {
			t.Errorf("k%d replays %t, want %t", i, ok, i >= extra)
		}
	}
	// Re-recording a logged key changes its record in place.
	sh.recordIdem("k20", sh.idem.find("k20"), idemResult{op: idemUnbind})
	if got := order(); !reflect.DeepEqual(got, want) {
		t.Errorf("re-record reordered or duplicated the log: %d records", len(got))
	}
	if _, _, ok, _ := sh.replayIdem("k20", idemUnbind, [32]byte{}); !ok {
		t.Error("re-recorded key does not replay its new record")
	}
	// Empty keys are never recorded.
	sh.recordIdem("", sh.idem.find(""), idemResult{op: idemBind})
	if _, _, ok, _ := sh.replayIdem("", idemBind, [32]byte{}); ok || len(order()) != maxIdemResults {
		t.Error("empty key recorded")
	}
}

// TestHandlersRecordWhereTheyReplayed: each handler records a key at the
// slot its replay found it at, with nothing in between moving it. At a
// full log, an accepted unbind under a bind's key and a bind under a
// status's key each overwrite that record where it stands — the log
// keeps its order and evicts nothing — and then replay as themselves; a
// fresh key still evicts the oldest record. Unkeyed binds, unbinds,
// delegations and revocations record nothing and replay nothing.
func TestHandlersRecordWhereTheyReplayed(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	bind := func(key string) protocol.BindRequest {
		return protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: key}
	}
	beat := func(key string) protocol.StatusRequest {
		return protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: key}
	}
	if _, err := svc.HandleBind(bind("k-0")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxIdemResults; i++ {
		if _, err := svc.HandleStatus(beat(fmt.Sprintf("k-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sh := svc.store.get(testDevice)
	log := func() (keys []string, ops []uint8) {
		for _, rec := range sh.exportIdem() {
			keys, ops = append(keys, rec.Key), append(ops, rec.Op)
		}
		return keys, ops
	}
	want, _ := log()
	if len(want) != maxIdemResults || want[0] != "k-0" {
		t.Fatalf("the log holds %d records from %q, want %d from k-0", len(want), want[0], maxIdemResults)
	}
	unbind := protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "k-0"}
	for i := 0; i < 2; i++ {
		if err := svc.HandleUnbind(unbind); err != nil {
			t.Fatalf("unbind %d under the bind's key: %v", i, err)
		}
	}
	if _, err := svc.HandleBind(bind("k-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(bind("k-1")); err != nil {
		t.Fatal(err)
	}
	keys, ops := log()
	if !reflect.DeepEqual(keys, want) || ops[0] != uint8(idemUnbind) || ops[1] != uint8(idemBind) {
		t.Fatalf("re-recorded keys moved or changed no record: %v... ops %v...", keys[:3], ops[:3])
	}
	if st := svc.Stats(); st.UnbindsDeduplicated != 1 || st.BindsDeduplicated != 1 {
		t.Errorf("deduplicated %d unbinds and %d binds, want 1 and 1", st.UnbindsDeduplicated, st.BindsDeduplicated)
	}
	if _, err := svc.HandleStatus(beat("k-new")); err != nil {
		t.Fatal(err)
	}
	keys, _ = log()
	if !reflect.DeepEqual(keys, append(want[1:], "k-new")) {
		t.Errorf("a fresh key at the cap left %v..., want the oldest evicted", keys[:3])
	}

	// Unkeyed requests of every fingerprinted op, each sent twice, record
	// nothing and replay nothing: each delivery runs.
	before := svc.Stats()
	delegate := protocol.DelegateRequest{DeviceID: testDevice, UserToken: victim, Grantee: "attacker@example.com", Scopes: []string{"control"}}
	revoke := protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: victim, Grantee: "attacker@example.com"}
	unbind.IdempotencyKey = ""
	for i := 0; i < 2; i++ {
		if _, err := svc.HandleDelegate(delegate); err != nil {
			t.Fatalf("unkeyed delegate %d: %v", i, err)
		}
		if err := svc.HandleRevokeDelegation(revoke); err != nil {
			t.Fatalf("unkeyed revoke %d: %v", i, err)
		}
		if _, err := svc.HandleBind(bind("")); err != nil {
			t.Fatalf("unkeyed bind %d: %v", i, err)
		}
	}
	if err := svc.HandleUnbind(unbind); err != nil {
		t.Fatalf("unkeyed unbind: %v", err)
	}
	if err := svc.HandleUnbind(unbind); !errors.Is(err, protocol.ErrNotBound) {
		t.Errorf("a second unkeyed unbind: %v, want it run and refused as not bound", err)
	}
	st := svc.Stats()
	if st.DelegationsGranted-before.DelegationsGranted != 2 || st.BindsAccepted-before.BindsAccepted != 2 ||
		st.DelegationsDeduplicated != before.DelegationsDeduplicated || st.BindsDeduplicated != before.BindsDeduplicated ||
		st.UnbindsDeduplicated != before.UnbindsDeduplicated {
		t.Errorf("unkeyed requests replayed: stats went from %+v to %+v", before, st)
	}
	if got, _ := log(); !reflect.DeepEqual(got, keys) {
		t.Errorf("unkeyed requests changed the log: %v..., want %v...", got[:3], keys[:3])
	}
}

// collidingKeys returns two distinct keys with one keyHash, found by a
// birthday search.
func collidingKeys(t *testing.T) (string, string) {
	t.Helper()
	seen := map[uint32]string{}
	x := uint64(7)
	for i := 0; i < 1<<20; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := fmt.Sprintf("c%016x", x)
		if prev, ok := seen[keyHash(key)]; ok {
			return prev, key
		}
		seen[keyHash(key)] = key
	}
	t.Fatal("no keyHash collision among 2^20 keys")
	return "", ""
}

// TestIdemLogMatchesReference holds the ring to the map and FIFO order
// slice it replaced over a seeded stream of records: keys drawn from a
// pool twice the cap, so records are evicted, re-recorded and recorded
// again, with two keys of one hash among them. After every record the recorded key replays, and every few the
// whole pool answers as the reference does, in the reference's FIFO
// order — from the log and from a copy of it made over a larger or a
// smaller log. A key whose hash alone matches a record never replays it.
func TestIdemLogMatchesReference(t *testing.T) {
	a, b := collidingKeys(t)
	pool := []string{a, b}
	for i := len(pool); i < 2*maxIdemResults; i++ {
		pool = append(pool, fmt.Sprintf("key-%d", i))
	}
	var (
		sh, spare shadow
		ref       = map[string]idemResult{}
		order     []string
		rng       = uint64(1)
	)
	// check holds sh, and spare made a copy of it over whatever log spare
	// held before, to the reference.
	check := func(step int) {
		t.Helper()
		spare.copyFrom(&sh)
		for _, s := range []*shadow{&sh, &spare} {
			for _, key := range pool {
				want, logged := ref[key]
				i := s.idem.find(key)
				if (i >= 0) != logged || logged && s.idem.ents.buf[i].idemResult != want {
					t.Fatalf("step %d: %q found at %d, reference logged %t", step, key, i, logged)
				}
			}
			var got []string
			for _, rec := range s.exportIdem() {
				got = append(got, rec.Key)
			}
			if !reflect.DeepEqual(got, order) && len(got)+len(order) > 0 {
				t.Fatalf("step %d: log order differs from the reference's", step)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := pool[rng>>33%uint64(len(pool))]
		if step%7 == 0 {
			key = pool[step/7%2] // the colliding pair, often
		}
		r := idemResult{op: idemBind, fingerprint: [32]byte{byte(step), byte(step >> 8)}}
		sh.recordIdem(key, sh.idem.find(key), r)
		if _, exists := ref[key]; !exists {
			order = append(order, key)
			if len(order) > maxIdemResults {
				delete(ref, order[0])
				order = order[1:]
			}
		}
		ref[key] = r
		if got, _, ok, _ := sh.replayIdem(key, idemBind, r.fingerprint); !ok || got != r {
			t.Fatalf("step %d: %q does not replay the record just made", step, key)
		}
		if step%97 == 0 || step < 16 {
			check(step)
		}
	}
	check(-1)
	// A copy of a small log over a full one.
	sh, ref, order = shadow{}, map[string]idemResult{}, nil
	for _, key := range pool[:3] {
		sh.recordIdem(key, sh.idem.find(key), idemResult{op: idemUnbind})
		ref[key], order = idemResult{op: idemUnbind}, append(order, key)
	}
	check(-2)

	// A record under a alone: b shares its hash, never its record.
	var fresh shadow
	fresh.recordIdem(a, fresh.idem.find(a), idemResult{op: idemBind})
	if _, _, ok, conflict := fresh.replayIdem(b, idemBind, [32]byte{}); ok || conflict {
		t.Errorf("%q replays (%t) or conflicts (%t) with %q's record: a hash match is not a key match", b, ok, conflict, a)
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
			kept := sh.idem.ents.buf[sh.idem.find(tc.req.IdempotencyKey)].status
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
