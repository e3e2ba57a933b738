package cloud

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// TestCloudInvariantsUnderRandomOps hammers one cloud with random
// operation sequences from four users and a device, checking externally
// observable security invariants after every step:
//
//   - control is only ever queued for the bound owner or an account the
//     live grants authorize for it;
//   - pushed user data is only ever delivered while its pusher is still
//     the bound owner (no cross-binding data leak);
//   - readings are only served to the owner or an account the live
//     grants authorize to read;
//   - delegated authority never exceeds the live grant's scopes and
//     never outlives the binding: a delegation token works only if it
//     was minted under the current binding and its grantee's live grant
//     chain carries the scope, and a grant or revocation is accepted
//     only from an account entitled to make it;
//   - the shadow state is always one of the four model states and agrees
//     with the accept/reject behaviour observed;
//   - the activity counters exactly account for every attempt.
//
// The grants are checked against a mirror the test keeps of every
// accepted grant, replacement and revocation, not against the lattice.
// TestCloudInvariantsUnderRandomOpsOnNode runs the same seeded
// sequences through a replicated node.
func TestCloudInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomOps(t, seed, func(t *testing.T, design core.DesignSpec, reg *Registry, clock func() time.Time) RandomOpsTarget {
				svc, err := NewService(design, reg, WithClock(clock))
				if err != nil {
					t.Fatal(err)
				}
				return RandomOpsTarget{Cloud: svc, Svc: svc}
			})
		})
	}
}

// RandomOpsTarget is what runRandomOps drives: the cloud the operations
// go to and the Service whose counters and shadow trace it checks.
// KeyStatus gives every heartbeat an idempotency key, so each is logged:
// a durable store applies a bare keep-alive without a record, and its
// counters would part a primary from its replica.
type RandomOpsTarget struct {
	Cloud     transport.Cloud
	Svc       *Service
	KeyStatus bool
}

// mirrorGrant is one accepted grant as the random-op run's mirror keeps
// it.
type mirrorGrant struct {
	grantor string
	scopes  delegation.Scope
	expiry  time.Time
	depth   int
}

// grantMirror replays accepted grants and revocations the way the
// delegation model defines them: a grantee holds one grant, re-granting
// severs the old grant's subtree, a cascading revocation severs the
// revoked grant's, and authority needs a live chain to the owner.
type grantMirror map[string]mirrorGrant

// authorized reports whether user's grant carries scope and every link
// of its chain to owner exists and is unexpired at now.
func (m grantMirror) authorized(owner, user string, scope delegation.Scope, now time.Time) bool {
	g, ok := m[user]
	if !ok || !g.scopes.Has(scope) {
		return false
	}
	for steps := 0; steps <= len(m); steps++ {
		if !g.expiry.IsZero() && now.After(g.expiry) {
			return false
		}
		if g.grantor == owner {
			return true
		}
		if g, ok = m[g.grantor]; !ok {
			return false
		}
	}
	return false
}

// severBelow removes every grant transitively derived from holder's.
func (m grantMirror) severBelow(holder string) {
	cut := map[string]bool{holder: true}
	for grew := true; grew; {
		grew = false
		for who, g := range m {
			if cut[g.grantor] && !cut[who] {
				cut[who], grew = true, true
			}
		}
	}
	for who := range cut {
		if who != holder {
			delete(m, who)
		}
	}
}

// grant records an accepted grant, replacing (and severing below) any
// grant the grantee held.
func (m grantMirror) grant(grantee string, g mirrorGrant) {
	if _, ok := m[grantee]; ok {
		m.severBelow(grantee)
	}
	m[grantee] = g
}

// revoke records an accepted revocation.
func (m grantMirror) revoke(grantee string, cascade bool) {
	if _, ok := m[grantee]; ok && cascade {
		m.severBelow(grantee)
	}
	delete(m, grantee)
}

// RunRandomOps exports runRandomOps to the package's external tests.
var RunRandomOps = runRandomOps

func runRandomOps(t *testing.T, seed int64, open func(*testing.T, core.DesignSpec, *Registry, func() time.Time) RandomOpsTarget) {
	rng := rand.New(rand.NewSource(seed))

	design := devIDDesign()
	design.CheckBoundUserOnBind = rng.Intn(2) == 0
	design.CheckBoundUserOnUnbind = rng.Intn(2) == 0
	design.ReplaceOnBind = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		design.UnbindForms = append(design.UnbindForms, core.UnbindDevIDAlone)
	}
	// Every delegation token is checked at use: without that guard a
	// minted token is trusted until its own expiry (the A6-3 window),
	// which is the design's to lose, not the lattice's.
	design.DelegationCheckAtUse = true
	design.DelegationScopeAttenuation = rng.Intn(2) == 0
	design.DelegationCascadeRevoke = rng.Intn(2) == 0

	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	target := open(t, design, reg, clock.Now)
	c, svc := target.Cloud, target.Svc
	users := []string{"alice@example.com", "bob@example.com", "carol@example.com", "dave@example.com"}
	tokens := make(map[string]string, len(users))
	for _, u := range users {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: u, Password: "pw-" + u}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Login(protocol.LoginRequest{UserID: u, Password: "pw-" + u})
		if err != nil {
			t.Fatal(err)
		}
		tokens[u] = resp.UserToken
	}

	var (
		grants    = grantMirror{} // mirror of live grants
		lastBound string
		epoch     int                       // bumped whenever the binding changes hands
		minted    []string                  // every delegation token, stale ones kept
		mintedFor = map[string]string{}     // delegation token -> grantee
		mintedIn  = map[string]int{}        // delegation token -> epoch minted in
		pushers   = make(map[string]string) // data body -> pushing user
		attempts  = make(map[string]int)    // op family -> count
		cmdSeq    int
	)

	shadow := func() protocol.ShadowStateResponse {
		st, err := c.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice})
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Valid() {
			t.Fatalf("invalid shadow state %v", st.State)
		}
		return st
	}

	syncMirror := func() {
		st := shadow()
		if st.BoundUser != lastBound {
			// Binding changed hands (bind/unbind/replace): grants die.
			grants = grantMirror{}
			lastBound = st.BoundUser
			epoch++
		}
	}
	// delegated checks an accepted control or read by delegation token.
	delegated := func(i int, what, tok string, scope delegation.Scope, before protocol.ShadowStateResponse) {
		grantee := mintedFor[tok]
		if mintedIn[tok] != epoch {
			t.Fatalf("step %d: %s accepted for %q's delegation token minted under an earlier binding", i, what, grantee)
		}
		if before.BoundUser != grantee && !grants.authorized(before.BoundUser, grantee, scope, clock.Now()) {
			t.Fatalf("step %d: %s accepted for %q's delegation token beyond its live grant (%+v)", i, what, grantee, grants[grantee])
		}
	}
	status := func(i int, kind protocol.StatusKind) (protocol.StatusResponse, error) {
		req := protocol.StatusRequest{Kind: kind, DeviceID: testDevice}
		if target.KeyStatus {
			req.IdempotencyKey = fmt.Sprintf("status-%d", i)
		}
		return c.HandleStatus(req)
	}

	const steps = 400
	for i := 0; i < steps; i++ {
		u := users[rng.Intn(len(users))]
		other := users[(rng.Intn(len(users))+1)%len(users)]
		switch op := rng.Intn(15); op {
		case 0: // device registration
			attempts["status"]++
			_, _ = status(i, protocol.StatusRegister)

		case 1, 2: // heartbeat, possibly delivering data
			attempts["status"]++
			resp, err := status(i, protocol.StatusHeartbeat)
			if err == nil {
				st := shadow()
				for _, d := range resp.UserData {
					if pushers[d.Body] != st.BoundUser {
						t.Fatalf("step %d: data %q pushed by %q delivered while %q is bound",
							i, d.Body, pushers[d.Body], st.BoundUser)
					}
				}
			}

		case 3: // bind
			attempts["bind"]++
			_, _ = c.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: tokens[u], Sender: core.SenderApp})

		case 4: // unbind (either form)
			attempts["unbind"]++
			req := protocol.UnbindRequest{DeviceID: testDevice, UserToken: tokens[u], Sender: core.SenderApp}
			if rng.Intn(3) == 0 {
				req.UserToken = ""
				req.Sender = core.SenderDevice
			}
			_ = c.HandleUnbind(req)

		case 5: // share / revoke
			revoke := rng.Intn(3) == 0
			err := c.HandleShare(protocol.ShareRequest{
				DeviceID: testDevice, UserToken: tokens[u], Guest: other, Revoke: revoke,
			})
			if err == nil {
				st := shadow()
				if st.BoundUser != u {
					t.Fatalf("step %d: share managed by %q while %q is bound", i, u, st.BoundUser)
				}
				if revoke {
					grants.revoke(other, design.DelegationCascadeRevoke)
				} else {
					grants.grant(other, mirrorGrant{grantor: u, scopes: delegation.ScopeControl | delegation.ScopeRead})
				}
			}

		case 6, 10: // control, by user token or by a delegation token
			attempts["control"]++
			cmdSeq++
			cred, byToken := tokens[u], op == 10 && len(minted) > 0
			if byToken {
				cred = minted[rng.Intn(len(minted))]
			}
			before := shadow()
			_, err := c.HandleControl(protocol.ControlRequest{
				DeviceID: testDevice, UserToken: cred,
				Command: protocol.Command{ID: fmt.Sprintf("c%d", cmdSeq), Name: "probe"},
			})
			if err == nil {
				if before.State != core.StateControl {
					t.Fatalf("step %d: control accepted in state %v", i, before.State)
				}
				if byToken {
					delegated(i, "control", cred, delegation.ScopeControl, before)
				} else if before.BoundUser != u && !grants.authorized(before.BoundUser, u, delegation.ScopeControl, clock.Now()) {
					t.Fatalf("step %d: control accepted for %q (bound %q, grants %v)",
						i, u, before.BoundUser, grants)
				}
			}

		case 7: // push user data
			body := fmt.Sprintf("data-%d-%s", i, u)
			err := c.PushUserData(protocol.PushUserDataRequest{
				DeviceID: testDevice, UserToken: tokens[u],
				Data: protocol.UserData{Kind: "schedule", Body: body},
			})
			if err == nil {
				st := shadow()
				if st.BoundUser != u {
					t.Fatalf("step %d: push accepted for %q while %q is bound", i, u, st.BoundUser)
				}
				pushers[body] = u
			}

		case 8, 12: // readings, by user token or by a delegation token
			cred, byToken := tokens[u], op == 12 && len(minted) > 0
			if byToken {
				cred = minted[rng.Intn(len(minted))]
			}
			before := shadow()
			_, err := c.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: cred})
			if err == nil {
				if byToken {
					delegated(i, "readings", cred, delegation.ScopeRead, before)
				} else if before.BoundUser != u && !grants.authorized(before.BoundUser, u, delegation.ScopeRead, clock.Now()) {
					t.Fatalf("step %d: readings served to %q (bound %q)", i, u, before.BoundUser)
				}
			}

		case 9: // time passes
			clock.Advance(time.Duration(rng.Intn(90)) * time.Second)

		case 11, 13, 14: // delegate, or revoke a delegation
			if rng.Intn(2) == 0 && lastBound != "" {
				u = lastBound // the owner, half the time: most grants start there
			}
			before := shadow()
			now := clock.Now()
			parent, holds := grants[u]
			entitled := before.BoundUser == u || (grants.authorized(before.BoundUser, u, delegation.ScopeShare, now) && parent.depth >= 1)
			if rng.Intn(3) == 0 {
				err := c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: tokens[u], Grantee: other})
				if err == nil {
					if g, ok := grants[other]; ok && before.BoundUser != u && g.grantor != u {
						t.Fatalf("step %d: %q revoked %q's grant from %q (bound %q)", i, u, other, g.grantor, before.BoundUser)
					}
					grants.revoke(other, design.DelegationCascadeRevoke)
				}
				break
			}
			scopes := delegation.Scope(1 + rng.Intn(7))
			g := mirrorGrant{grantor: u, scopes: scopes, depth: rng.Intn(3)}
			ttl := int64(rng.Intn(3)) * 60
			if ttl > 0 {
				g.expiry = now.Add(time.Duration(ttl) * time.Second)
			}
			resp, err := c.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: tokens[u],
				Grantee: other, Scopes: scopes.Names(), TTLSeconds: ttl, Depth: g.depth})
			if err != nil {
				break
			}
			if !entitled {
				t.Fatalf("step %d: %q granted %v to %q without authority (bound %q, grants %v)", i, u, scopes, other, before.BoundUser, grants)
			}
			if design.DelegationScopeAttenuation && before.BoundUser != u && holds &&
				(!parent.scopes.Has(scopes) || g.depth >= parent.depth) {
				t.Fatalf("step %d: %q's grant %+v exceeds its own %+v", i, u, g, parent)
			}
			grants.grant(other, g)
			minted = append(minted, resp.DelegationToken)
			mintedFor[resp.DelegationToken] = other
			mintedIn[resp.DelegationToken] = epoch
		}
		syncMirror()
	}

	// The counters account exactly for every attempt we made.
	stats := svc.Stats()
	if got := stats.StatusAccepted + stats.StatusRejected; got != int64(attempts["status"]) {
		t.Errorf("status counters %d != attempts %d", got, attempts["status"])
	}
	if got := stats.BindsAccepted + stats.BindsRejected; got != int64(attempts["bind"]) {
		t.Errorf("bind counters %d != attempts %d", got, attempts["bind"])
	}
	if got := stats.UnbindsAccepted + stats.UnbindsRejected; got != int64(attempts["unbind"]) {
		t.Errorf("unbind counters %d != attempts %d", got, attempts["unbind"])
	}
	if got := stats.ControlsQueued + stats.ControlsRejected; got != int64(attempts["control"]) {
		t.Errorf("control counters %d != attempts %d", got, attempts["control"])
	}

	// The shadow trace contains only legal model transitions.
	for _, tr := range svc.ShadowTrace(testDevice) {
		next, err := core.Next(tr.From, tr.Event)
		if err != nil || next != tr.To {
			t.Errorf("illegal recorded transition %v", tr)
		}
	}
}
