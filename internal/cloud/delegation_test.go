package cloud

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// delegDesign is the strict posture: attenuation, cascade revocation and
// use-time chain checking all on.
func delegDesign() core.DesignSpec {
	d := devIDDesign()
	d.Name = "devid-acl-deleg"
	d.DelegationScopeAttenuation = true
	d.DelegationCascadeRevoke = true
	d.DelegationCheckAtUse = true
	return d
}

// delegFixture binds the victim and registers guest and sub-guest
// accounts, returning their login tokens.
func delegFixture(t *testing.T, design core.DesignSpec) (*Service, *testClock, string, string, string) {
	t.Helper()
	svc, clock, victim, _ := newTestService(t, design)
	guest := loginUser(t, svc, "guest@example.com", "pw-guest")
	sub := loginUser(t, svc, "sub@example.com", "pw-sub")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	return svc, clock, victim, guest, sub
}

func control(svc *Service, cred, id string) error {
	_, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: cred, Command: protocol.Command{ID: id, Name: "on"},
	})
	return err
}

// TestDelegateLifecycle: grant, control through both credential forms,
// listing, and expiry.
func TestDelegateLifecycle(t *testing.T) {
	svc, clock, victim, guest, _ := delegFixture(t, delegDesign())

	if err := control(svc, guest, "pre"); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Fatalf("pre-grant control = %v, want ErrNotPermitted", err)
	}

	resp, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
		Scopes: []string{"control", "read"}, TTLSeconds: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DelegationToken == "" {
		t.Fatal("no delegation token minted")
	}
	if want := clock.Now().Add(time.Hour); !resp.ExpiresAt.Equal(want) {
		t.Errorf("expiry = %v, want %v", resp.ExpiresAt, want)
	}

	// Both credential forms command the device: the guest's own session
	// token (lattice walk) and the minted delegation token (fast path).
	if err := control(svc, guest, "g1"); err != nil {
		t.Errorf("grantee user-token control = %v", err)
	}
	if err := control(svc, resp.DelegationToken, "g2"); err != nil {
		t.Errorf("delegation-token control = %v", err)
	}
	if _, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: resp.DelegationToken}); err != nil {
		t.Errorf("delegation-token readings = %v", err)
	}

	list, err := svc.ListDelegations(protocol.ListDelegationsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Grants) != 1 || list.Grants[0].Grantee != "guest@example.com" {
		t.Fatalf("grants = %+v", list.Grants)
	}

	// Past the TTL both forms die.
	clock.Advance(2 * time.Hour)
	if err := control(svc, guest, "late1"); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("expired user-token control = %v, want ErrNotPermitted", err)
	}
	if err := control(svc, resp.DelegationToken, "late2"); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("expired delegation-token control = %v, want ErrAuthFailed", err)
	}
}

// TestDelegationChainDepthAndAttenuation: re-delegation spends depth,
// attenuation pins derived scopes inside the grantor's, and a read-only
// chain never reaches control.
func TestDelegationChainDepthAndAttenuation(t *testing.T) {
	svc, _, victim, guest, sub := delegFixture(t, delegDesign())

	if _, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
		Scopes: []string{"read", "share"}, Depth: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Escalation: the guest holds read+share, so a control-scoped
	// sub-grant must be refused.
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: guest, Grantee: "sub@example.com",
		Scopes: []string{"control"},
	}); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Fatalf("escalating re-delegation = %v, want ErrNotPermitted", err)
	}

	// An attenuated re-delegation is accepted and the sub-guest can read
	// but not control.
	subResp, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: guest, Grantee: "sub@example.com",
		Scopes: []string{"read"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: subResp.DelegationToken}); err != nil {
		t.Errorf("sub-guest readings = %v", err)
	}
	if err := control(svc, sub, "s1"); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("read-only sub-guest control = %v, want ErrNotPermitted", err)
	}

	// Depth is exhausted one link down: the sub-guest holds no share
	// scope and no budget, so the chain stops here.
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: sub, Grantee: "victim@example.com",
	}); err == nil {
		t.Error("depth-exhausted re-delegation accepted")
	}
}

// TestDelegationCascadeRevoke: revoking the guest severs the derived
// sub-grant and retires both minted tokens atomically.
func TestDelegationCascadeRevoke(t *testing.T) {
	svc, _, victim, guest, _ := delegFixture(t, delegDesign())

	gResp, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
		Scopes: []string{"control", "read", "share"}, Depth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sResp, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: guest, Grantee: "sub@example.com",
		Scopes: []string{"control", "read"},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
	}); err != nil {
		t.Fatal(err)
	}

	for name, cred := range map[string]string{
		"guest token": gResp.DelegationToken, "sub token": sResp.DelegationToken,
	} {
		if err := control(svc, cred, "x-"+name); err == nil {
			t.Errorf("%s still commands the device after cascade revocation", name)
		}
	}
	list, err := svc.ListDelegations(protocol.ListDelegationsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Grants) != 0 {
		t.Errorf("grants after cascade revocation = %+v", list.Grants)
	}
}

// TestDelegationResidualWithoutGuards reproduces A6-1 in emulation: with
// neither cascade revocation nor use-time checking, the sub-guest's
// minted token survives its parent's eviction and still commands the
// device — and flipping use-time checking on closes it.
func TestDelegationResidualWithoutGuards(t *testing.T) {
	permissive := delegDesign()
	permissive.Name = "deleg-permissive"
	permissive.DelegationScopeAttenuation = false
	permissive.DelegationCascadeRevoke = false
	permissive.DelegationCheckAtUse = false

	svc, _, victim, guest, _ := delegFixture(t, permissive)
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
		Scopes: []string{"control", "read", "share"}, Depth: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sResp, err := svc.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: guest, Grantee: "sub@example.com",
		Scopes: []string{"control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
	}); err != nil {
		t.Fatal(err)
	}
	if err := control(svc, sResp.DelegationToken, "orphan"); err != nil {
		t.Errorf("A6-1 blocked on the permissive design: %v", err)
	}

	strict := permissive
	strict.Name = "deleg-checkatuse"
	strict.DelegationCheckAtUse = true
	svc2, _, victim2, guest2, _ := delegFixture(t, strict)
	if _, err := svc2.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: victim2, Grantee: "guest@example.com",
		Scopes: []string{"control", "read", "share"}, Depth: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sResp2, err := svc2.HandleDelegate(protocol.DelegateRequest{
		DeviceID: testDevice, UserToken: guest2, Grantee: "sub@example.com",
		Scopes: []string{"control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
		DeviceID: testDevice, UserToken: victim2, Grantee: "guest@example.com",
	}); err != nil {
		t.Fatal(err)
	}
	if err := control(svc2, sResp2.DelegationToken, "orphan2"); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("use-time checking did not block the orphaned token: %v", err)
	}
}

// TestRevokeRedeliveryNotReapplied is the idempotency regression the
// revoke fingerprint exists for: grant, revoke (keyed), grant again,
// then the revoke's transport redelivery arrives. Replay must return
// the recorded success without severing the newer grant.
func TestRevokeRedeliveryNotReapplied(t *testing.T) {
	svc, _, victim, guest, _ := delegFixture(t, delegDesign())

	grant := func() {
		t.Helper()
		if _, err := svc.HandleDelegate(protocol.DelegateRequest{
			DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
			Scopes: []string{"control", "read"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	revoke := protocol.RevokeDelegationRequest{
		DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
		IdempotencyKey: "revoke-once",
	}

	grant()
	if err := svc.HandleRevokeDelegation(revoke); err != nil {
		t.Fatal(err)
	}
	if err := control(svc, guest, "gone"); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Fatalf("post-revoke control = %v, want ErrNotPermitted", err)
	}

	grant()
	// The redelivery: same key, same request. It must replay, not
	// re-execute.
	if err := svc.HandleRevokeDelegation(revoke); err != nil {
		t.Fatalf("redelivered revoke = %v", err)
	}
	if err := control(svc, guest, "alive"); err != nil {
		t.Errorf("redelivered revoke severed the newer grant: control = %v", err)
	}
	if got := svc.Stats().DelegationsDeduplicated; got != 1 {
		t.Errorf("deduplicated revocations = %d, want 1", got)
	}
	// A different request under the same key is a conflict, never a
	// silent replay.
	conflicting := revoke
	conflicting.Grantee = "sub@example.com"
	if err := svc.HandleRevokeDelegation(conflicting); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("conflicting key reuse = %v, want ErrAuthFailed", err)
	}
}

// TestDelegationRevocationRaceOneWinner races a delegated control
// against the owner's revocation, repeatedly: either the control landed
// before the revocation (its command is queued) or it lost and left
// nothing behind. Exactly one of the two — never a command queued by a
// control that reported failure, never a lost command from one that
// reported success, and never a success after both finished.
func TestDelegationRevocationRaceOneWinner(t *testing.T) {
	svc, _, victim, _, _ := delegFixture(t, delegDesign())

	for i := 0; i < 200; i++ {
		resp, err := svc.HandleDelegate(protocol.DelegateRequest{
			DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
			Scopes: []string{"control"},
		})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var controlErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			controlErr = control(svc, resp.DelegationToken, "race")
		}()
		go func() {
			defer wg.Done()
			if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
				DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com",
			}); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()

		queued := len(mustStatus(t, svc, protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		}).Commands)
		if controlErr == nil && queued != 1 {
			t.Fatalf("iteration %d: control succeeded but %d commands queued", i, queued)
		}
		if controlErr != nil && queued != 0 {
			t.Fatalf("iteration %d: control failed (%v) but %d commands queued", i, controlErr, queued)
		}
		// After the revocation is complete the loser stays lost: the
		// stale token never works again.
		if err := control(svc, resp.DelegationToken, "after"); err == nil {
			t.Fatalf("iteration %d: revoked delegation token still commands the device", i)
		}
	}
}

// TestOwnershipTransferStorm: on one device, delegations, re-delegations,
// cascading revocations, share flips and delegated controls run while
// another goroutine unbinds and rebinds the device between two owners.
// Each lattice mutation returns its severed grantees in the lattice's own
// list, valid only until the next mutation, so the race detector sees any
// use of it outside the shadow's lock. Once the storm settles and the
// device changes hands once more, no credential minted or granted during
// it commands the device.
func TestOwnershipTransferStorm(t *testing.T) {
	svc, _, victim, guest, sub := delegFixture(t, delegDesign())
	other := loginUser(t, svc, "other@example.com", "pw-other")
	owners := []string{victim, other}

	const rounds = 150
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		minted []string
	)
	keep := func(tok string) {
		mu.Lock()
		minted = append(minted, tok)
		mu.Unlock()
	}
	wg.Add(4)
	go func() { // the transfers
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			from, to := owners[i%2], owners[(i+1)%2]
			_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: from, Sender: core.SenderApp})
			_, _ = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: to, Sender: core.SenderApp})
		}
	}()
	for w := 0; w < 2; w++ {
		go func(w int) { // grants, re-grants, delegated use and revocations
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				owner := owners[(i+w)%2]
				resp, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: owner,
					Grantee: "guest@example.com", Scopes: []string{"control", "read", "share"}, Depth: 1})
				if err == nil {
					keep(resp.DelegationToken)
					_ = control(svc, resp.DelegationToken, "by-guest")
				}
				if resp, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: guest,
					Grantee: "sub@example.com", Scopes: []string{"control"}}); err == nil {
					keep(resp.DelegationToken)
					_ = control(svc, resp.DelegationToken, "by-sub")
				}
				_ = control(svc, sub, "by-sub-user")
				_ = svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: owner,
					Grantee: "guest@example.com"})
			}
		}(w)
	}
	go func() { // share flips, which sever what was derived from the guest
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = svc.HandleShare(protocol.ShareRequest{DeviceID: testDevice, UserToken: owners[i%2],
				Guest: "guest@example.com", Revoke: i%3 == 0})
			_ = control(svc, guest, "by-guest-user")
		}
	}()
	wg.Wait()

	// One more transfer, to whichever owner does not hold the device.
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	next := victim
	if st.BoundUser == "victim@example.com" {
		_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp})
		next = other
	} else if st.BoundUser != "" {
		_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: other, Sender: core.SenderApp})
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: next, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	for _, cred := range append(minted, guest, sub) {
		if err := control(svc, cred, "stale"); err == nil {
			t.Fatal("a credential from before the last transfer commands the device")
		}
	}
	list, err := svc.ListDelegations(protocol.ListDelegationsRequest{DeviceID: testDevice, UserToken: next})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Grants) != 0 {
		t.Fatalf("grants survived the transfer: %+v", list.Grants)
	}
	if err := control(svc, next, "owner"); err != nil {
		t.Fatalf("the new owner cannot control: %v", err)
	}
}
