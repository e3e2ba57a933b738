package cloud

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// pinnedRecords are wirecodec's TestRecordBytesPinned literals, one per
// record tag, all naming device "dev-1".
var pinnedRecords = []string{
	"01008007ca8db1bf1802056465762d310264740273670273740264700468622d3103312e30016d0b3230332e302e3131332e37010107706f7765725f770000000000001240008007ca8db1bf18",
	"03008007ca8db1bf18056465762d31076f776e65724078",
	"04008007ca8db1bf18056465762d3103746f6b036740780207636f6e74726f6c0472656164100e0000000000000100000000000000026b31",
	"05008007ca8db1bf18056465762d3103746f6b03674078026b32",
	"06008007ca8db1bf18056465762d3103746f6b076775657374407801",
	"07008007ca8db1bf1803754078027077",
	"08008007ca8db1bf1803754078027077",
	"09008007ca8db1bf1803746f6b056465762d310570726f6f66",
	"0a008007ca8db1bf1803746f6b056465762d31",
	"0b008007ca8db1bf18056465762d3103746f6b037540780270770262740262700200000000000000026b330b3230332e302e3131332e37",
	"0c008007ca8db1bf18056465762d3103746f6b0100000000000000026b340b3230332e302e3131332e37",
	"0d008007ca8db1bf18056465762d3103746f6b0273740263310373657402056c6576656c0137046d6f64650365636f0b3230332e302e3131332e37",
	"0e008007ca8db1bf18056465762d3103746f6b087363686564756c650830393a3030206f6e",
}

// retiredBatchRecord is a status-batch record (tag 0x02, a form since
// removed) as it was last pinned: a heartbeat of dev-1 and a registration
// of dev-2. No apply path accepts it.
const retiredBatchRecord = "02008007ca8db1bf180b3230332e302e3131332e370202056465762d31000000000468622d31000000000107706f7765725f770000000000001240008007ca8db1bf1801056465762d32000000000003312e30016d0d3139382e35312e3130302e36360000"

// loggedRecord is one record as a primary logged it.
type loggedRecord struct {
	lsn     uint64
	payload []byte
}

// applyDevice is the device every record form addresses; the registry
// also knows applyOther, which the lifecycle registers too.
const (
	applyDevice = "dev-1"
	applyOther  = "dev-2"
)

func applyRegistry(tb testing.TB) *Registry {
	tb.Helper()
	reg := NewRegistry()
	for _, id := range []string{applyDevice, applyOther} {
		if err := reg.Add(DeviceRecord{ID: id, FactorySecret: testSecret, Model: "plug"}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// openApplyDurable opens a durable cloud that keeps idempotency records
// in its snapshots, so the equivalence below compares them too.
func openApplyDurable(tb testing.TB, dir string, design core.DesignSpec, reg *Registry, clock *testClock, follower bool) *Durable {
	tb.Helper()
	d, err := OpenDurable(dir, design, reg, DurableOptions{
		Clock: clock.Now, Follower: follower, WAL: wal.Options{Policy: wal.SyncOff},
		ServiceOptions: []Option{WithPersistentIdempotency()},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return d
}

// lifecycleRecords drives a primary through every logged operation — a
// binding's whole life, the token requests, a share, a push, a drained
// heartbeat, statuses from another address, liveness, redeliveries and
// refusals — and returns
// the records it logged with its final snapshot.
func lifecycleRecords(tb testing.TB, design core.DesignSpec) (dir string, recs []loggedRecord, final Snapshot) {
	tb.Helper()
	dir = tb.TempDir()
	clock := newTestClock()
	d := openApplyDurable(tb, dir, design, applyRegistry(tb), clock, false)
	d.SetAppendObserver(func(_ int, lsn uint64, payload []byte) {
		recs = append(recs, loggedRecord{lsn, append([]byte(nil), payload...)})
	})
	step := func(err error) {
		tb.Helper()
		clock.Advance(time.Second)
		if err != nil && !errors.Is(err, protocol.ErrAuthFailed) && !errors.Is(err, protocol.ErrNotPermitted) &&
			!errors.Is(err, protocol.ErrOutsideWindow) && !errors.Is(err, protocol.ErrNotBound) &&
			!errors.Is(err, protocol.ErrUnknownDevice) {
			tb.Fatalf("lifecycle step: %v", err)
		}
	}
	step(d.RegisterUser(protocol.RegisterUserRequest{UserID: "owner@x", Password: "pw"}))
	step(d.RegisterUser(protocol.RegisterUserRequest{UserID: "guest@x", Password: "pw"}))
	login, err := d.Login(protocol.LoginRequest{UserID: "owner@x", Password: "pw"})
	step(err)
	_, err = d.Login(protocol.LoginRequest{UserID: "owner@x", Password: "wrong"})
	step(err)
	tok := login.UserToken
	reg, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: applyDevice,
		ButtonPressed: true, SourceIP: "203.0.113.7"})
	step(err)
	proof := protocol.DataProof(testSecret, reg.SessionNonce)
	_, err = d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, DataProof: proof})
	step(err) // a liveness note, flushed ahead of the next cold record
	bind := protocol.BindRequest{DeviceID: applyDevice, UserToken: tok, Sender: core.SenderApp,
		IdempotencyKey: "k-bind", SourceIP: "203.0.113.7"}
	_, err = d.HandleBind(bind)
	step(err)
	_, err = d.HandleBind(bind)
	step(err) // a redelivery, answered from the idempotency record
	_, err = d.HandleDelegate(protocol.DelegateRequest{DeviceID: applyDevice, UserToken: tok, Grantee: "guest@x",
		Scopes: []string{"control", "read"}, TTLSeconds: 3600, IdempotencyKey: "k-deleg"})
	step(err)
	_, err = d.HandleControl(protocol.ControlRequest{DeviceID: applyDevice, UserToken: tok,
		Command: protocol.Command{ID: "c1", Name: "set", Args: map[string]string{"level": "7"}}})
	step(err)
	step(d.HandleShare(protocol.ShareRequest{DeviceID: applyDevice, UserToken: tok, Guest: "guest@x"}))
	step(d.PushUserData(protocol.PushUserDataRequest{DeviceID: applyDevice, UserToken: tok,
		Data: protocol.UserData{Kind: "schedule", Body: "09:00 on"}}))
	_, err = d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, DataProof: proof})
	step(err) // drains the inboxes: logged ahead
	_, err = d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, DataProof: proof,
		IdempotencyKey: "k-hb", Readings: []protocol.Reading{{Name: "power_w", Value: 4.5, At: clock.Now()}}})
	step(err)
	_, err = d.RequestBindToken(protocol.BindTokenRequest{UserToken: tok, DeviceID: applyDevice})
	step(err)
	_, err = d.RequestDeviceToken(protocol.DeviceTokenRequest{UserToken: tok, DeviceID: applyDevice,
		PairingProof: protocol.PairingProof(testSecret, applyDevice)})
	step(err)
	for _, req := range []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: applyOther},
		{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, DataProof: proof, IdempotencyKey: "k-other-ip"},
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-9", IdempotencyKey: "k-unknown"}, // logged, then refused
	} {
		req.SourceIP = "198.51.100.66"
		_, err = d.HandleStatus(req)
		step(err)
	}
	step(d.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: applyDevice, UserToken: tok,
		Grantee: "guest@x", IdempotencyKey: "k-revoke"}))
	step(d.HandleUnbind(protocol.UnbindRequest{DeviceID: applyDevice, UserToken: tok, Sender: core.SenderApp,
		IdempotencyKey: "k-unbind", SourceIP: "203.0.113.7"}))
	_, err = d.HandleControl(protocol.ControlRequest{DeviceID: applyDevice, UserToken: tok})
	step(err) // refused: unbound
	return dir, recs, d.Snapshot()
}

// applyPair is two replicas of one primary. Each record is applied to
// one through Durable.applyRecord, the path replication and recovery
// take, and to the other through wirecodec.DecodeRecord and
// applyWALRecord, the reference.
type applyPair struct {
	typed, generic *Durable
	lsn            uint64
}

func newApplyPair(tb testing.TB, primaryDir string, design core.DesignSpec) *applyPair {
	tb.Helper()
	meta, err := os.ReadFile(filepath.Join(primaryDir, "meta.json"))
	if err != nil {
		tb.Fatal(err)
	}
	clock, reg := newTestClock(), applyRegistry(tb)
	open := func() *Durable {
		dir := tb.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
			tb.Fatal(err)
		}
		return openApplyDurable(tb, dir, design, reg, clock, true)
	}
	return &applyPair{typed: open(), generic: open()}
}

// applyReference is applyRecord as the reference spells it.
func applyReference(d *Durable, lsn uint64, payload []byte) error {
	rec, err := wirecodec.DecodeRecord(payload)
	if err != nil {
		return err
	}
	d.beginOp(rec.At, d.stream(lsn))
	err = applyWALRecord(rec, d.svc)
	d.endOp()
	return err
}

func snapshotBytes(tb testing.TB, d *Durable) []byte {
	tb.Helper()
	return encodeSnapshot(tb, d.Snapshot())
}

func encodeSnapshot(tb testing.TB, snap Snapshot) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := EncodeSnapshot(&b, snap); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// apply hands payload to both paths at lsn and requires one verdict —
// both accept, or both refuse with ErrBadRequest — and byte-equal
// snapshots and equal Stats afterwards. It reports whether they
// accepted.
func (p *applyPair) apply(tb testing.TB, lsn uint64, payload []byte) bool {
	tb.Helper()
	typedErr := p.typed.applyRecord(lsn, payload)
	genericErr := applyReference(p.generic, lsn, payload)
	if (typedErr == nil) != (genericErr == nil) {
		tb.Fatalf("record %x: typed apply says %v, generic apply says %v", payload, typedErr, genericErr)
	}
	if typedErr != nil && !(errors.Is(typedErr, protocol.ErrBadRequest) && errors.Is(genericErr, protocol.ErrBadRequest)) {
		tb.Fatalf("record %x refused with %v / %v, want ErrBadRequest from both", payload, typedErr, genericErr)
	}
	if typed, generic := snapshotBytes(tb, p.typed), snapshotBytes(tb, p.generic); !bytes.Equal(typed, generic) {
		tb.Fatalf("after record %x the snapshots differ:\ntyped:\n%s\ngeneric:\n%s", payload, typed, generic)
	}
	if typed, generic := p.typed.svc.Stats(), p.generic.svc.Stats(); typed != generic {
		tb.Fatalf("after record %x the stats differ:\ntyped:   %+v\ngeneric: %+v", payload, typed, generic)
	}
	return typedErr == nil
}

// next applies payload at the pair's next LSN past every logged one.
func (p *applyPair) next(tb testing.TB, payload []byte) bool {
	tb.Helper()
	p.lsn++
	return p.apply(tb, p.lsn, payload)
}

// applyDesigns are the two postures the equivalence is checked under:
// one that accepts every form (so readings, idempotency records and the
// device address land in the snapshot) and one where a register mints a
// session nonce from the record's stream and opens the button window.
func applyDesigns() []core.DesignSpec {
	strict := devIDDesign()
	strict.Name = "data-session-button"
	strict.DataRequiresSession = true
	strict.BindButtonWindow = true
	strict.DelegationCheckAtUse = true
	return []core.DesignSpec{devIDDesign(), strict}
}

// recordForms are the pinned literals followed by a primary's log.
func recordForms(tb testing.TB, recs []loggedRecord) [][]byte {
	tb.Helper()
	var forms [][]byte
	for _, h := range pinnedRecords {
		raw, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatal(err)
		}
		forms = append(forms, raw)
	}
	for _, r := range recs {
		forms = append(forms, r.payload)
	}
	return forms
}

// TestTypedApplyMatchesGenericApply: the table-driven apply is an
// optimisation of decoding a record and switching on its request type,
// not a second reading of the format. A primary's whole log, replayed at
// its own LSNs, rebuilds the primary's snapshot through both; every
// record tag's pinned literal leaves the same state through both; and
// any record cut short anywhere, or followed by a stray byte, is refused
// by both.
func TestTypedApplyMatchesGenericApply(t *testing.T) {
	for _, design := range applyDesigns() {
		t.Run(design.Name, func(t *testing.T) {
			dir, recs, final := lifecycleRecords(t, design)
			tags := map[byte]bool{}
			for _, r := range recs {
				tags[r.payload[0]] = true
			}
			if len(tags) != 13 {
				t.Fatalf("the lifecycle logged %d record tags, want all 13", len(tags))
			}
			p := newApplyPair(t, dir, design)
			for _, r := range recs {
				if !p.apply(t, r.lsn, r.payload) {
					t.Errorf("logged record %x refused", r.payload)
				}
				p.lsn = r.lsn
			}
			// The replicas' clocks are their own, and the bare heartbeat
			// the primary applied without a record counts only there.
			replayed := p.typed.Snapshot()
			replayed.TakenAt, final.TakenAt = time.Time{}, time.Time{}
			final.Stats.StatusAccepted--
			if got, want := encodeSnapshot(t, replayed), encodeSnapshot(t, final); !bytes.Equal(got, want) {
				t.Errorf("replayed log differs from the primary:\nreplayed:\n%s\nprimary:\n%s", got, want)
			}
			forms := recordForms(t, recs)
			for _, payload := range forms[:len(pinnedRecords)] {
				if !p.next(t, payload) {
					t.Errorf("pinned record %x refused", payload)
				}
			}
			for _, payload := range forms {
				for cut := 0; cut < len(payload); cut++ {
					if p.next(t, payload[:cut]) {
						t.Errorf("record %x accepted cut to %d bytes", payload, cut)
					}
				}
				if p.next(t, append(append([]byte(nil), payload...), 0)) {
					t.Errorf("record %x accepted with a trailing byte", payload)
				}
			}
			if p.next(t, []byte{0x7f, 0, 0, 0, 0, 0, 0, 0, 0}) {
				t.Error("a record with an unknown tag was accepted")
			}
			batch, err := hex.DecodeString(retiredBatchRecord)
			if err != nil {
				t.Fatal(err)
			}
			if p.next(t, batch) || p.next(t, []byte{0x02, 0, 0, 0, 0, 0, 0, 0, 0}) {
				t.Error("a record with the retired status-batch tag 0x02 was accepted")
			}
		})
	}
}

// FuzzApplyRecord holds the two apply paths to one verdict, one snapshot
// and one set of counters on arbitrary record payloads of any tag. State
// accumulates across inputs within a worker, so later inputs meet filled
// idempotency logs, bindings, grants and reading buffers.
func FuzzApplyRecord(f *testing.F) {
	var pairs []*applyPair
	for _, design := range applyDesigns() {
		dir, recs, _ := lifecycleRecords(f, design)
		for _, payload := range recordForms(f, recs) {
			f.Add(payload)
		}
		pairs = append(pairs, newApplyPair(f, dir, design))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, p := range pairs {
			p.next(t, payload)
		}
	})
}

// TestRecordIDsCanonicalOnlyOnExactMatch: the replay cursor reads a
// device ID through the registry, a credential through the token issuer
// and an account through the account store, and each hands back its own
// string only for bytes that match an entry exactly. An unknown string,
// a prefix or an extension of a held one, and the empty string each
// decode to their own bytes.
func TestRecordIDsCanonicalOnlyOnExactMatch(t *testing.T) {
	registered := strings.Clone(applyDevice)
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: registered, FactorySecret: testSecret}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(t.TempDir(), devIDDesign(), reg, DurableOptions{WAL: wal.Options{Policy: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, id := range []string{applyDevice, "dev-9", "dev-", "dev-12", ""} {
		var b bytes.Buffer
		wirecodec.PutStr(&b, id)
		d.cur.Reset(b.Bytes())
		got := d.cur.ID()
		if !d.cur.Done() || got != id {
			t.Fatalf("ID %q decoded to %q (done %t)", id, got, d.cur.Done())
		}
		if shared := len(got) > 0 && unsafe.StringData(got) == unsafe.StringData(registered); shared != (id == applyDevice) {
			t.Errorf("ID %q: registry's string returned = %t, want %t", id, shared, id == applyDevice)
		}
	}
	account := strings.Clone("owner@x")
	if err := d.RegisterUser(protocol.RegisterUserRequest{UserID: account, Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := d.Login(protocol.LoginRequest{UserID: account, Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	tok := login.UserToken
	for _, c := range []struct {
		read func() string
		held string
	}{{d.cur.Cred, tok}, {d.cur.Account, account}} {
		for _, s := range []string{c.held, c.held[:len(c.held)-1], c.held + "0", "unknown", ""} {
			var b bytes.Buffer
			wirecodec.PutStr(&b, s)
			d.cur.Reset(b.Bytes())
			got := c.read()
			if !d.cur.Done() || got != s {
				t.Fatalf("%q decoded to %q (done %t)", s, got, d.cur.Done())
			}
			if shared := len(got) > 0 && unsafe.StringData(got) == unsafe.StringData(c.held); shared != (s == c.held) {
				t.Errorf("%q: the store's string returned = %t, want %t", s, shared, s == c.held)
			}
		}
	}
	if raceEnabled {
		return
	}
	var b bytes.Buffer
	wirecodec.PutStr(&b, applyDevice)
	if n := testing.AllocsPerRun(100, func() { d.cur.Reset(b.Bytes()); _ = d.cur.ID() }); n != 0 {
		t.Errorf("reading a registered ID allocates %.0f times, want 0", n)
	}
}

// TestReplayedKeysOutliveTheirRecord: a replica's apply borrows each
// idempotency key, and every source address but a registration's, from
// the record it decodes, so the shadow must copy what it keeps. On a
// design that checks a bind's source address, a keyed bind, controls, a
// keyed status with a reading, a keyed registration and a keyed
// heartbeat, a bind from an address the device no longer has, an
// unbind, a rebind and a control, each from its own address, are
// applied from buffers
// overwritten right after each apply; the replica accepts and refuses
// exactly what the primary did, still equals it, snapshot for snapshot
// (its idempotency log, command inbox and the later registration's
// device_ip included), and still replays the bind and the three statuses
// from their records.
func TestReplayedKeysOutliveTheirRecord(t *testing.T) {
	dir, clock := t.TempDir(), newTestClock()
	reg := applyRegistry(t)
	design := devIDDesign()
	design.SourceIPCheck = true
	primary := openApplyDurable(t, dir, design, reg, clock, false)
	var recs []loggedRecord
	primary.SetAppendObserver(func(_ int, lsn uint64, payload []byte) {
		recs = append(recs, loggedRecord{lsn, append([]byte(nil), payload...)})
	})
	if err := primary.RegisterUser(protocol.RegisterUserRequest{UserID: "owner@x", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := primary.Login(protocol.LoginRequest{UserID: "owner@x", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: applyDevice, SourceIP: "203.0.113.7"}); err != nil {
		t.Fatal(err)
	}
	bind := protocol.BindRequest{DeviceID: applyDevice, UserToken: login.UserToken, Sender: core.SenderApp,
		IdempotencyKey: "k-bind-borrowed", SourceIP: "203.0.113.7"}
	bound, err := primary.HandleBind(bind)
	if err != nil {
		t.Fatal(err)
	}
	control := func(name, src string) {
		t.Helper()
		if _, err := primary.HandleControl(protocol.ControlRequest{DeviceID: applyDevice, UserToken: login.UserToken,
			Command: protocol.Command{ID: "c-" + name, Name: name}, SourceIP: src}); err != nil {
			t.Fatal(err)
		}
	}
	control("turn_on", "203.0.113.9")
	status := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, IdempotencyKey: "k-status-borrowed",
		SourceIP: "203.0.113.8", Readings: []protocol.Reading{{Name: "power_w", Value: 4.5, At: clock.Now()}}}
	beat, err := primary.HandleStatus(status)
	if err != nil {
		t.Fatal(err)
	}
	later := []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: applyDevice, IdempotencyKey: "k-later-register", SourceIP: "198.51.100.9"},
		{Kind: protocol.StatusHeartbeat, DeviceID: applyDevice, IdempotencyKey: "k-later-heartbeat", SourceIP: "198.51.100.10",
			Readings: []protocol.Reading{{Name: "power_w", Value: 5.5, At: clock.Now()}}},
	}
	var laterResps []protocol.StatusResponse
	for _, req := range later {
		resp, err := primary.HandleStatus(req)
		if err != nil {
			t.Fatal(err)
		}
		laterResps = append(laterResps, resp)
	}
	// The device now speaks from the later registration's address, so a
	// bind from its first one is refused.
	if _, err := primary.HandleBind(protocol.BindRequest{DeviceID: applyDevice, UserToken: login.UserToken, Sender: core.SenderApp,
		IdempotencyKey: "k-bind-stale", SourceIP: "203.0.113.7"}); !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("a bind from the device's old address: %v, want a source-address refusal", err)
	}
	if err := primary.HandleUnbind(protocol.UnbindRequest{DeviceID: applyDevice, UserToken: login.UserToken, Sender: core.SenderApp,
		IdempotencyKey: "k-unbind-borrowed", SourceIP: "192.0.2.1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.HandleBind(protocol.BindRequest{DeviceID: applyDevice, UserToken: login.UserToken, Sender: core.SenderApp,
		IdempotencyKey: "k-rebind-borrowed", SourceIP: "198.51.100.9"}); err != nil {
		t.Fatal(err)
	}
	control("set_level", "203.0.113.10")

	replicaDir := t.TempDir()
	meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(replicaDir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	replica := openApplyDurable(t, replicaDir, design, reg, clock, true)
	for _, rec := range recs {
		buf := append([]byte(nil), rec.payload...)
		if err := replica.applyRecord(rec.lsn, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
	}
	if got, want := snapshotBytes(t, replica), snapshotBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatalf("the replica's snapshot differs once its records are overwritten:\nreplica:\n%s\nprimary:\n%s", got, want)
	}
	if sh := replica.Snapshot().Shadows[0]; sh.DeviceIP != "198.51.100.9" || len(sh.CommandInbox) != 1 {
		t.Errorf("the replica's device_ip is %q, want the later registration's 198.51.100.9, and its inbox %v one command", sh.DeviceIP, sh.CommandInbox)
	}
	if got, want := replica.svc.Stats(), primary.Service().Stats(); got.BindsAccepted != 2 || got.BindsRejected != 1 ||
		got.ControlsQueued != 2 || got.UnbindsAccepted != 1 || got != want {
		t.Errorf("the replica's outcomes differ from the primary's or the script's:\nreplica %+v\nprimary %+v", got, want)
	}
	if resp, err := replica.svc.HandleBind(bind); err != nil || resp != bound {
		t.Errorf("replica bind replay = %+v, %v; want %+v", resp, err, bound)
	}
	if resp, err := replica.svc.HandleStatus(status); err != nil || !reflect.DeepEqual(resp, beat) {
		t.Errorf("replica status replay = %+v, %v; want %+v", resp, err, beat)
	}
	for i, req := range later {
		if resp, err := replica.svc.HandleStatus(req); err != nil || !reflect.DeepEqual(resp, laterResps[i]) {
			t.Errorf("replica replay of later status %d = %+v, %v; want %+v", i, resp, err, laterResps[i])
		}
	}
	if st := replica.svc.Stats(); st.BindsDeduplicated != 1 || st.StatusDeduplicated != 3 {
		t.Errorf("replica deduplicated %d binds and %d statuses, want 1 and 3", st.BindsDeduplicated, st.StatusDeduplicated)
	}
}
