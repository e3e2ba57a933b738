package cloud

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
)

// TestShadowCopyCoversEveryField: shadow.copyFrom copies field by field,
// skipping only the lock. A field added to shadow must be copied there as
// well, and this count moved with it.
func TestShadowCopyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf((*shadow)(nil)).Elem().NumField(); n != 15 {
		t.Errorf("shadow has %d fields, copyFrom copies 14 and the lock", n)
	}
}

// TestCheckpointRewindsEverything: a service rewound to a checkpoint is
// the service that was captured — accounts, tokens, registry, counters
// and every shadow with its delegation grants, inboxes, readings,
// idempotency log and Figure 2 trace — whatever ran in between, and it
// serves on from there; once warm, a rewind and a capture allocate
// nothing.
func TestCheckpointRewindsEverything(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(devIDDesign(), reg, WithClock(clock.Now), WithPersistentIdempotency())
	if err != nil {
		t.Fatal(err)
	}
	victim := loginUser(t, svc, "victim@example.com", "pw-victim")
	guest := loginUser(t, svc, "guest@example.com", "pw-guest")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "bind-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com", Scopes: []string{"control", "read"}, TTLSeconds: 3600}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: guest, Command: protocol.Command{ID: "c1", Name: "on"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: victim, Data: protocol.UserData{Kind: "schedule", Body: "08:00"}}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		Readings: []protocol.Reading{{Name: "power_w", Value: 7}}})
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c2", Name: "off"}}); err != nil {
		t.Fatal(err)
	}

	type world struct {
		Snapshot Snapshot
		Trace    []core.Transition
		Registry []string
		Stats    Stats
	}
	look := func() world {
		return world{svc.Snapshot(), svc.ShadowTrace(testDevice), svc.Registry().IDs(), svc.Stats()}
	}
	want, at := look(), clock.Now()
	var c Checkpoint
	svc.Capture(&c)

	// Everything a later experiment may do: another device, account and
	// owner, the grant revoked, the inboxes drained, readings added, the
	// clock moved on.
	if err := reg.Add(DeviceRecord{ID: "AA:BB:CC:00:99:01", FactorySecret: "s", Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: "AA:BB:CC:00:99:01"})
	other := loginUser(t, svc, "other@example.com", "pw-other")
	if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com"}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	hb2 := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-2",
		Readings: []protocol.Reading{{Name: "power_w", Value: 9}}}
	mustStatus(t, svc, hb2)
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: other, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(look(), want) {
		t.Fatal("the traffic after the capture changed nothing")
	}

	for round := 0; round < 2; round++ {
		svc.Rewind(&c)
		clock.t = at // the clock is the caller's
		if got := look(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: rewound service differs from the captured one\ngot:  %+v\nwant: %+v", round, got, want)
		}
		// It serves on from the captured world: the grant is back, the
		// keyed bind replays, the other device is unknown again.
		if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: guest, Command: protocol.Command{ID: "c3", Name: "on"}}); err != nil {
			t.Errorf("round %d: the guest's grant did not come back: %v", round, err)
		}
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "bind-1"}); err != nil {
			t.Errorf("round %d: the keyed bind does not replay: %v", round, err)
		}
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: "AA:BB:CC:00:99:01"}); err == nil {
			t.Errorf("round %d: a device registered after the capture is still known", round)
		}
		mustStatus(t, svc, hb2)
		if n := svc.Stats().StatusDeduplicated; n != want.Stats.StatusDeduplicated {
			t.Errorf("round %d: a keyed heartbeat first sent after the capture replays (%d deduplicated)", round, n)
		}
	}

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() {
		svc.Rewind(&c)
		svc.Capture(&c)
	}); n != 0 {
		t.Errorf("a warm rewind and capture: %v allocations, want 0", n)
	}
}

// TestGatedRewindMatchesFullCopy holds Rewind, which copies back only the
// stores whose write count moved, to a full copy: over seeded sequences
// of operations between captures and rewinds — each writing the
// registry, the accounts, the tokens, the counters or the shadows, or
// nothing — with resets, snapshot restores, recaptures and rewinds to a
// second checkpoint in between, a capture taken right after each rewind
// into a fresh checkpoint equals the checkpoint rewound to in every field
// but the marks. Each gated store must have been both skipped and copied
// along the way, or the sequence proved nothing.
func TestGatedRewindMatchesFullCopy(t *testing.T) {
	design := delegDesign()
	design.PostBindingToken = true
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(design, reg, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	victim := loginUser(t, svc, "victim@example.com", "pw")
	loginUser(t, svc, "guest@example.com", "pw")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()

	rng := rand.New(rand.NewSource(1))
	fresh := 0
	name := func(prefix string) string { fresh++; return fmt.Sprintf("%s-%d", prefix, fresh) }
	// user picks a signed-up account, reading the store only.
	user := func() string {
		accounts := sortedBy(svc.accounts.appendTo(nil), func(a account) string { return a.id })
		if len(accounts) == 0 {
			return ""
		}
		return accounts[rng.Intn(len(accounts))].id
	}
	// grantee picks a grantee of the device's, else any account.
	grantee := func() string {
		if sh, ok := svc.store.peek(testDevice); ok {
			if grants := sh.deleg.Grants(); len(grants) > 0 {
				return grants[rng.Intn(len(grants))].Grantee
			}
		}
		return user()
	}
	// userToken picks a live user token — the bound owner's, when owner
	// is set and the owner holds one — reading the issuer and the shadow
	// only, so an operation that takes one writes only what it writes.
	userToken := func(owner bool) string {
		bound := ""
		if st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice}); err == nil && owner {
			bound = st.BoundUser
		}
		var live []string
		for _, tok := range svc.issuer.Export() {
			if tok.Kind == token.KindUser && (bound == "" || tok.Subject == bound) {
				live = append(live, tok.Value)
			}
		}
		if len(live) == 0 {
			return ""
		}
		slices.Sort(live)
		return live[rng.Intn(len(live))]
	}
	// ops write one store or more, or none; a refused one may count.
	ops := []func(){
		func() { _ = reg.Add(DeviceRecord{ID: name("dev"), FactorySecret: "s"}) },
		func() { _ = svc.RegisterUser(protocol.RegisterUserRequest{UserID: name("user"), Password: "pw"}) },
		func() { _ = svc.RegisterUser(protocol.RegisterUserRequest{UserID: user(), Password: "pw"}) },
		func() { _, _ = svc.Login(protocol.LoginRequest{UserID: user(), Password: "pw"}) },
		func() { _, _ = svc.Login(protocol.LoginRequest{UserID: user(), Password: "wrong"}) },
		func() {
			_, _ = svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
		},
		func() {
			_, _ = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: userToken(false), Sender: core.SenderApp})
		},
		func() {
			_, _ = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: userToken(true), Sender: core.SenderApp})
		},
		func() {
			_ = svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: userToken(true), Sender: core.SenderApp})
		},
		func() {
			_, _ = svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: userToken(true), Grantee: user(), Scopes: []string{"control"}})
		},
		func() {
			_ = svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: userToken(true), Grantee: grantee()})
		},
		func() {
			if toks := svc.issuer.Export(); len(toks) > 0 {
				svc.issuer.Revoke(toks[rng.Intn(len(toks))].Value)
			}
		},
		func() { svc.issuer.Revoke("never-issued") },
		func() { _ = svc.Restore(snap) },
		func() { _ = svc.Stats() },
	}

	var c1, c2 Checkpoint
	svc.Capture(&c1)
	svc.Capture(&c2)
	// copied counts, per gated store, the rewinds that copied it back and
	// the ones that skipped it.
	var copied, skipped [3]int
	counts := func() [3]uint64 {
		return [3]uint64{reg.writes.Load(), svc.accounts.writes.Load(), svc.issuer.Writes()}
	}
	for step := 0; step < 3000; step++ {
		for range rng.Intn(4) {
			ops[rng.Intn(len(ops))]()
		}
		c := &c1
		switch r := rng.Intn(10); {
		case r == 0:
			if err := svc.Reset(design); err != nil {
				t.Fatal(err)
			}
		case r < 3:
			svc.Capture(&c2)
			continue
		case r < 6:
			c = &c2
		}
		before := counts()
		svc.Rewind(c)
		for i, n := range counts() {
			if n != before[i] {
				copied[i]++
			} else {
				skipped[i]++
			}
		}
		var got Checkpoint
		svc.Capture(&got)
		if err := sameWorld(&got, c); err != nil {
			t.Fatalf("step %d: the rewound service captures other than its checkpoint: %v", step, err)
		}
	}
	t.Logf("copied back / skipped: registry %d/%d, accounts %d/%d, tokens %d/%d", copied[0], skipped[0], copied[1], skipped[1], copied[2], skipped[2])
	for i, store := range []string{"registry", "accounts", "tokens"} {
		if copied[i] == 0 || skipped[i] == 0 {
			t.Errorf("%s: copied back %d times and skipped %d, want both", store, copied[i], skipped[i])
		}
	}
}

// sameWorld reports how two checkpoints differ in what they hold: every
// field but the marks, the unordered ones compared sorted and the
// shadows as they export.
func sameWorld(got, want *Checkpoint) error {
	if !reflect.DeepEqual(got.design, want.design) {
		return fmt.Errorf("design %+v, want %+v", got.design, want.design)
	}
	if got.stats != want.stats {
		return fmt.Errorf("stats %+v, want %+v", got.stats, want.stats)
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"devices", sortedBy(got.devices, func(r DeviceRecord) string { return r.ID }), sortedBy(want.devices, func(r DeviceRecord) string { return r.ID })},
		{"accounts", sortedBy(got.accounts, func(a account) string { return a.id }), sortedBy(want.accounts, func(a account) string { return a.id })},
		{"tokens", sortedBy(got.tokens, func(tok token.Token) string { return tok.Value }), sortedBy(want.tokens, func(tok token.Token) string { return tok.Value })},
		{"shadows", shadowViews(got), shadowViews(want)},
	} {
		if !reflect.DeepEqual(part.got, part.want) {
			return fmt.Errorf("%s %+v, want %+v", part.name, part.got, part.want)
		}
	}
	return nil
}

// shadowViews exports c's shadows, each with its idempotency log and
// trace, sorted by device: a copied shadow may hold an empty map where
// its original holds none, and the view does not tell them apart.
func shadowViews(c *Checkpoint) []any {
	var views []any
	for _, sh := range sortedBy(c.shadows[:c.n], func(sh *shadow) string { return sh.deviceID }) {
		views = append(views, []any{sh.snapshot(true), sh.machine.Trace()})
	}
	return views
}

// sortedBy returns a copy of s sorted by key, nil when s is empty.
func sortedBy[T any](s []T, key func(T) string) []T {
	if len(s) == 0 {
		return nil
	}
	s = slices.Clone(s)
	slices.SortFunc(s, func(a, b T) int { return strings.Compare(key(a), key(b)) })
	return s
}
