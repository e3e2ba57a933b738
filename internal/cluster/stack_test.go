package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"unsafe"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// TestStackStatusAllocations pins what a status costs across the whole
// composed stack: client → loopback socket → binapi → Router → Switchable
// → ack-after-replicate Node (logged, shipped and applied on the replica
// before the ack) and back. A registered device's bare heartbeat
// allocates nothing anywhere in the process: its ID is the registry's,
// and it logs nothing. A keyed heartbeat with one reading allocates
// nothing either: the front end and the replica borrow its idempotency
// key from their input and the replica its source address
// (protocol.HeldCall, which every layer down to the service answers for
// the call), each shadow copies the key into its idempotency log's
// arena, the reading's name is the service's own string on both sides
// (protocol.HeldName), the readings slices are borrowed from the two
// cursors' arenas and the bound-only reply is shared on both sides.
// Before the front end borrowed the key and the replica the address it
// allocated twice; before the name table, the log's arena and the
// replica's borrowed keys five times: the front end's reading name, and
// the replica's key and reading name, besides these two.
func TestStackStatusAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	c := serveSocket(t, newRouterOver(t, map[string]transport.Cloud{"n0": n}))

	// The warm-up fills the reading and idempotency windows and sizes the
	// feed's and the cursors' arenas; AllocsPerRun makes one call more
	// than it counts.
	const warm, runs = 300, 1000
	reqs := make([]protocol.StatusRequest, warm+runs+1)
	for i := range reqs {
		reqs[i] = keyedStatus(labDev, fmt.Sprintf("hb-stack-%d", i))
		reqs[i].Readings = []protocol.Reading{{Name: "power_w", Value: float64(i), At: labClock()()}}
	}
	next := 0
	call := func() {
		resp, err := c.HandleStatus(reqs[next])
		if err != nil || !resp.Bound {
			t.Fatalf("keyed status %d: bound %v, %v", next, resp.Bound, err)
		}
		next++
	}
	for next < warm {
		call()
	}
	if got := testing.AllocsPerRun(runs, call); got != 0 {
		t.Errorf("a keyed status with one reading allocates %.0f times across the stack, want 0", got)
	}
	requireSnapshotsEqual(t, n.primary, n.replica)

	// Bare heartbeats are unlogged, so from here the primary counts more
	// statuses than its replica.
	bare := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev}
	beat := func() {
		if _, err := c.HandleStatus(bare); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		beat() // warm the pools
	}
	if got := testing.AllocsPerRun(2000, beat); got != 0 {
		t.Errorf("a bare heartbeat allocates %.0f times across the stack, want 0", got)
	}
}

// TestRouterDeviceIDsAreTheRegistrys: a front end asking the router for a
// held string gets, on rings of one, two and three nodes:
//
//   - for a device ID, the registry's own string when the device is
//     registered — from the ring owner's Switchable and the node behind
//     it — and a fresh copy for any other;
//   - for an account, the string the account store of the member it was
//     sent to holds (every member holds every account);
//   - for a credential, on a one-member ring the issuing store's own
//     string, on a larger one a fresh copy: the router does not know
//     which node issued it;
//   - for an idempotency key (protocol.HeldCall), the raw bytes
//     themselves while every member borrows it, else a fresh copy: any
//     member may serve the call.
//
// After Kill → Promote → Swap of n0 the promoted replica answers from
// the same registry and from its own token issuer and account store; a
// Switchable whose live backend cannot answer copies all four, and a
// router holding it, first or last in ring order, copies keys on every
// ring.
func TestRouterDeviceIDsAreTheRegistrys(t *testing.T) {
	var ids []string
	for i := 0; i < 32; i++ {
		ids = append(ids, fmt.Sprintf("AA:BB:CC:04:00:%02X", i))
	}
	reg := labRegistry(t, ids...)
	for _, names := range [][]string{{"n0"}, {"n0", "n1"}, {"n0", "n1", "n2"}} {
		t.Run(fmt.Sprintf("%d nodes", len(names)), func(t *testing.T) { routerHeldStrings(t, reg, ids, names) })
	}
}

func routerHeldStrings(t *testing.T, reg *cloud.Registry, ids, names []string) {
	nodes := make(map[string]*Node, len(names))
	serving := make(map[string]*cloud.Durable, len(names))
	members := make(map[string]*transport.Switchable, len(names))
	for _, name := range names {
		n, err := NewNode(NodeConfig{
			Name: name, Dir: filepath.Join(t.TempDir(), name), Design: labDesign(), Registry: reg,
			Clock: labClock(), WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff}, AckAfterReplicate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[name], serving[name] = n, n.Primary()
		members[name] = transport.NewSwitchable(n)
	}
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(ring, members)
	if err != nil {
		t.Fatal(err)
	}
	const user, victim = "u@lab", "n0"
	if err := r.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := r.Login(protocol.LoginRequest{UserID: user, Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	tok := login.UserToken

	// canonical asks the router for raw's kind and requires its bytes
	// back, never aliasing raw; it reports whether the answer is held's.
	canonical := func(stage string, kind protocol.Held, raw string, held map[string]string) bool {
		t.Helper()
		b := []byte(raw)
		got := r.Canonical(kind, b)
		if got != raw || unsafe.StringData(got) == unsafe.SliceData(b) {
			t.Errorf("%s: %q came back as %q, or aliasing the raw bytes", stage, raw, got)
		}
		return isHeld(held, raw, got)
	}
	lent := func(stage string, want bool) {
		t.Helper()
		for _, key := range []string{"k", "idem-" + user, ids[0]} {
			b := []byte(key)
			got := r.Canonical(protocol.HeldCall, b)
			if lent := unsafe.StringData(got) == unsafe.SliceData(b); got != key || lent != want {
				t.Errorf("%s: key %q came back as %q, its bytes %v, want %v", stage, key, got, lent, want)
			}
		}
	}
	check := func(stage string, answers bool) {
		t.Helper()
		owners := map[string]bool{}
		for _, id := range ids {
			owners[ring.Owner(id)] = true
			want := answers || ring.Owner(id) != victim
			if got := canonical(stage, protocol.HeldDevice, id, map[string]string{id: id}); got != want {
				t.Errorf("%s: %q (owner %s) is the registry's string: %v, want %v", stage, id, ring.Owner(id), got, want)
			}
		}
		if len(owners) != len(names) {
			t.Fatalf("the fleet landed on %d of %d nodes", len(owners), len(names))
		}
		canonical(stage, protocol.HeldDevice, "AA:BB:CC:04:FF:FF", nil)

		owner := ring.Owner(user)
		want := answers || owner != victim
		if got := canonical(stage, protocol.HeldAccount, user, heldStrings(serving[owner])); got != want {
			t.Errorf("%s: account %q is %s's store's string: %v, want %v", stage, user, owner, got, want)
		}
		want = answers && len(names) == 1
		for _, name := range names {
			if got := canonical(stage, protocol.HeldCred, tok, heldStrings(serving[name])); got != (want && name == owner) {
				t.Errorf("%s: the token is %s's issuer's string: %v, want %v", stage, name, got, want && name == owner)
			}
		}
		lent(stage, answers)
	}
	check("live", true)
	if _, err := nodes[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	promoted, err := nodes[victim].Promote()
	if err != nil {
		t.Fatal(err)
	}
	r.Member(victim).Swap(promoted)
	serving[victim] = promoted
	check("after failover", true)
	r.Member(victim).Swap(transport.NewFaultPlane(1).Wrap(promoted, transport.PartyDevice))
	check("behind a backend that cannot answer", false)
	last := names[len(names)-1]
	r.Member(victim).Swap(promoted)
	r.Member(last).Swap(transport.NewFaultPlane(1).Wrap(r.Member(last).Current(), transport.PartyDevice))
	lent("behind a last member that cannot answer", false)
}

// TestStackColdCycleAllocations pins what each step of bind_churn's
// cycle costs across the whole composed stack: client → loopback socket
// → binapi → one-member Router → Switchable → ack-after-replicate Node
// and back, both ends in this process, each request built ahead of the
// count. binapi reads every device ID, user token, delegation token and
// grantee through the router as the primary's own string, each scope
// name as the delegation scope table's, the command name as the name
// table's and the scope list from its worker cursor's arena, and borrows
// each idempotency key from its input (protocol.HeldCall), so on top of
// TestColdLaneAllocations' counts below the transport (0, 2, 0, 0, 0, 0)
// the client reads back the bound user and the minted delegation token:
// 1, 3, 0, 0, 0 and 0, 4 a cycle. Before the command name was held and
// the replica borrowed its source addresses they were 2, 3, 3, 0, 0 and
// 1, 9 a cycle: the front end's command name, and the replica's three
// addresses and command name. Before the front end borrowed the keys of
// bind, delegate, revoke and unbind they were 3, 4, 3, 0, 1 and 2, 13 a
// cycle; before the replica borrowed its keys from the record 4, 5, 3,
// 0, 2 and 3, 17 a cycle.
// Before the canonicaliser answered credentials
// and accounts the counts were 6, 21, 7, 3, 8 and 5, 50 a cycle: the 19
// between are the user tokens (6 decoded by the front end, 5 by the
// replica), the grantees (2 and 2) and the scope names (2 and 2). Before
// unbind emptied the delegation state in place they were 4, 13, 5, 2, 4
// and 3, 31 a cycle: the 14 between are the lattices, grant slots,
// inboxes, memo and severed lists the cold-lane pin names, and the
// front end's scope list.
func TestStackColdCycleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ids := coldDevices(8)
	n := newColdNode(t, "n0", labClock(), ids...)
	c := serveSocket(t, newRouterOver(t, map[string]transport.Cloud{"n0": n}))
	coldStepAllocs(t, c, ids, [6]uint64{1, 3, 0, 0, 0, 0})
	requireSnapshotsEqual(t, n.primary, n.replica)
}

// TestServedKeysReplay: over a loopback socket → binapi → one-member
// Router → ack-after-replicate Node, every idempotency key arrives as
// the bytes of its frame (protocol.HeldCall), and on the replica as the
// bytes of its record, together with a heartbeat's source address. So
// keyed statuses with a reading, a keyed re-registration, binds and
// unbinds on four devices are sent once, and then,
// after later frames and records have overwritten those buffers, sent
// again: each redelivery replays — the primary's StatusDeduplicated,
// BindsDeduplicated and UnbindsDeduplicated rise by the redeliveries of
// each — and the replica still equals the primary, the registration's
// address (a copy its shadow keeps) included.
func TestServedKeysReplay(t *testing.T) {
	ids := coldDevices(4)
	n := newColdNode(t, "n0", labClock(), ids...)
	c := serveSocket(t, newRouterOver(t, map[string]transport.Cloud{"n0": n}))
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "owner@lab", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := c.Login(protocol.LoginRequest{UserID: "owner@lab", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	// Each device is sent two binds, six statuses (a registration and
	// five heartbeats) and an unbind.
	const binds, statuses, unbinds = 2, 6, 1
	var sends []func() error
	for i, id := range ids {
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
		key := func(step string) string { return fmt.Sprintf("%s-%d", step, i) }
		status := func(step string, v float64) protocol.StatusRequest {
			return protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: key(step),
				Readings: []protocol.Reading{{Name: "power_w", Value: v, At: labClock()()}}}
		}
		beat := func(step string, v float64) func() error {
			return func() error { _, err := c.HandleStatus(status(step, v)); return err }
		}
		register := func() error {
			_, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id, IdempotencyKey: key("register")})
			return err
		}
		bind := func(step string) func() error {
			return func() error {
				_, err := c.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: login.UserToken, Sender: core.SenderApp, IdempotencyKey: key(step)})
				return err
			}
		}
		unbind := func() error {
			return c.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: login.UserToken, Sender: core.SenderApp, IdempotencyKey: key("unbind")})
		}
		sends = append(sends, bind("bind"), beat("hb-a", 1), register, beat("hb-b", 2), beat("hb-d", 3), beat("hb-e", 4), unbind, bind("rebind"), beat("hb-c", 5))
	}
	for _, send := range sends {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	before := n.primary.Service().Stats()
	for i, send := range sends {
		if err := send(); err != nil {
			t.Fatalf("redelivery %d: %v", i, err)
		}
	}
	after := n.primary.Service().Stats()
	for _, c := range []struct {
		what        string
		from, to, d int64
	}{
		{"statuses", before.StatusDeduplicated, after.StatusDeduplicated, statuses * int64(len(ids))},
		{"binds", before.BindsDeduplicated, after.BindsDeduplicated, binds * int64(len(ids))},
		{"unbinds", before.UnbindsDeduplicated, after.UnbindsDeduplicated, unbinds * int64(len(ids))},
	} {
		if c.to-c.from != c.d {
			t.Errorf("redelivering %d %s replayed %d", c.d, c.what, c.to-c.from)
		}
	}
	requireSnapshotsEqual(t, n.primary, n.replica)
}
