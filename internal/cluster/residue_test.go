package cluster

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// TestOwnershipTransferLeavesNoResidue: a device changes hands on an
// ack-after-replicate node after its first owner shared it, let the
// grantee act on it and queued deliveries for it. The next owner grants
// the previous one read access only. Nothing of the first binding may
// survive on any copy of the state — the primary, the replica promoted
// after a kill, and a store recovered from the primary's directory:
//
//   - the previous owner's user token controls nothing, and its new
//     delegation token reads but cannot control (no memoized verdict of
//     the old lattice speaks for it);
//   - the old grantee's delegation token and user token get neither
//     control nor readings;
//   - the grant listing shows the new owner's grant alone;
//   - no command or user data queued by the old owner reaches the
//     device.
func TestOwnershipTransferLeavesNoResidue(t *testing.T) {
	const dev = "AA:BB:CC:00:00:01"
	const ownerA, ownerB, grantee = "a@lab", "b@lab", "g@lab"
	dir := t.TempDir()
	clock := labClock()
	reg := labRegistry(t, dev)
	n, err := NewNode(NodeConfig{
		Name: "n0", Dir: dir, Design: coldDesign(), Registry: reg,
		Clock: clock, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff}, AckAfterReplicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tok := map[string]string{}
	for _, user := range []string{ownerA, ownerB, grantee} {
		must(n.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}))
		resp, err := n.Login(protocol.LoginRequest{UserID: user, Password: "pw"})
		must(err)
		tok[user] = resp.UserToken
	}
	_, err = n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: dev})
	must(err)
	bind := func(user string) {
		t.Helper()
		_, err := n.HandleBind(protocol.BindRequest{DeviceID: dev, UserToken: tok[user], Sender: core.SenderApp})
		must(err)
	}
	delegate := func(from, to string, scopes ...string) string {
		t.Helper()
		resp, err := n.HandleDelegate(protocol.DelegateRequest{DeviceID: dev, UserToken: tok[from], Grantee: to,
			Scopes: scopes, TTLSeconds: 3600, Depth: 0})
		must(err)
		return resp.DelegationToken
	}
	control := func(c transport.Cloud, cred, id string) error {
		_, err := c.HandleControl(protocol.ControlRequest{DeviceID: dev, UserToken: cred,
			Command: protocol.Command{ID: id, Name: "turn_on"}})
		return err
	}
	readings := func(c transport.Cloud, cred string) error {
		_, err := c.Readings(protocol.ReadingsRequest{DeviceID: dev, UserToken: cred})
		return err
	}

	// A's binding, with a grantee that acts through both of its
	// credentials (filling the authorization memo) and deliveries queued.
	bind(ownerA)
	oldDeleg := delegate(ownerA, grantee, "control", "read")
	must(control(n, oldDeleg, "g-deleg"))
	must(control(n, tok[grantee], "g-user"))
	must(readings(n, oldDeleg))
	must(control(n, tok[ownerA], "a-cmd"))
	must(n.PushUserData(protocol.PushUserDataRequest{DeviceID: dev, UserToken: tok[ownerA],
		Data: protocol.UserData{Kind: "schedule", Body: "a-data"}}))
	must(n.HandleUnbind(protocol.UnbindRequest{DeviceID: dev, UserToken: tok[ownerA], Sender: core.SenderApp}))

	// B's binding grants A read access only.
	bind(ownerB)
	newDeleg := delegate(ownerB, ownerA, "read")
	requireSnapshotsEqual(t, n.primary, n.replica)

	wantGrants := []cloud.GrantSnapshot{{Grantor: ownerB, Grantee: ownerA, Scopes: []string{"read"},
		Expiry: clock().Add(3600e9)}}
	stored := func(name string, d *cloud.Durable) {
		t.Helper()
		snap := d.Snapshot()
		if len(snap.Shadows) != 1 {
			t.Fatalf("%s: %d shadows", name, len(snap.Shadows))
		}
		sh := snap.Shadows[0]
		if sh.BoundUser != ownerB || len(sh.CommandInbox) != 0 || len(sh.DataInbox) != 0 ||
			!reflect.DeepEqual(sh.Grants, wantGrants) {
			t.Fatalf("%s: shadow after the transfer: bound %q, commands %v, data %v, grants %+v",
				name, sh.BoundUser, sh.CommandInbox, sh.DataInbox, sh.Grants)
		}
	}
	served := func(name string, c transport.Cloud) {
		t.Helper()
		for _, cred := range []struct {
			who, cred string
			read      bool
		}{
			{"A's user token", tok[ownerA], true},
			{"A's new delegation token", newDeleg, true},
			{"G's old delegation token", oldDeleg, false},
			{"G's user token", tok[grantee], false},
		} {
			if control(c, cred.cred, "stale") == nil {
				t.Errorf("%s: %s controls B's device", name, cred.who)
			}
			if err := readings(c, cred.cred); (err == nil) != cred.read {
				t.Errorf("%s: %s reads B's device: %v, want %v", name, cred.who, err == nil, cred.read)
			}
		}
		list, err := c.ListDelegations(protocol.ListDelegationsRequest{DeviceID: dev, UserToken: tok[ownerB]})
		must(err)
		if len(list.Grants) != 1 || list.Grants[0].Grantor != ownerB || list.Grants[0].Grantee != ownerA ||
			!reflect.DeepEqual(list.Grants[0].Scopes, []string{"read"}) {
			t.Errorf("%s: B lists %+v, want only B's read grant to A", name, list.Grants)
		}
		hb, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: dev})
		must(err)
		if len(hb.Commands) != 0 || len(hb.UserData) != 0 {
			t.Errorf("%s: the device received %v and %v queued under the previous binding", name, hb.Commands, hb.UserData)
		}
	}

	stored("primary", n.primary)
	stored("replica", n.replica)
	served("primary", n)

	if _, err := n.Kill(); err != nil {
		t.Fatal(err)
	}
	promoted, err := n.Promote()
	must(err)
	stored("promoted replica", promoted)
	served("promoted replica", promoted)

	recovered, err := cloud.OpenDurable(filepath.Join(dir, "primary"), coldDesign(), reg,
		cloud.DurableOptions{WAL: wal.Options{Policy: wal.SyncOff}, WALShards: 4, Clock: clock})
	must(err)
	defer recovered.Close()
	stored("recovered primary", recovered)
	served("recovered primary", recovered)
}
