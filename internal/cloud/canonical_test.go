package cloud

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestCanonicalRacesLoginAndRevoke: the canonicaliser reads the token
// issuer and the account store while other goroutines sign up, log in
// and revoke. Each logger-in owns the tokens it is issued: a live one
// canonicalises to the issuer's own string (Login hands out that very
// string in process), a revoked one to a fresh copy of its bytes.
// Meanwhile readers canonicalise a long-lived token, an account and an
// unknown token without pause. Under -race (make race-stress, ten
// times) any unsynchronised read of either table shows.
func TestCanonicalRacesLoginAndRevoke(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	const loggers, readers, rounds = 2, 2, 200
	var done atomic.Bool
	var loggersWG, readersWG sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		done.Store(true)
	}
	for g := 0; g < loggers; g++ {
		loggersWG.Add(1)
		go func(g int) {
			defer loggersWG.Done()
			for i := 0; i < rounds && !done.Load(); i++ {
				user := fmt.Sprintf("racer-%d-%d@example.com", g, i)
				if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}); err != nil {
					fail("register %s: %v", user, err)
					return
				}
				resp, err := svc.Login(protocol.LoginRequest{UserID: user, Password: "pw"})
				if err != nil {
					fail("login %s: %v", user, err)
					return
				}
				tok := resp.UserToken
				if got := svc.Canonical(protocol.HeldCred, []byte(tok)); unsafe.StringData(got) != unsafe.StringData(tok) {
					fail("live token %q canonicalised to %q, not the issuer's string", tok, got)
					return
				}
				svc.issuer.Revoke(tok)
				if got := svc.Canonical(protocol.HeldCred, []byte(tok)); got != tok || unsafe.StringData(got) == unsafe.StringData(tok) {
					fail("revoked token %q canonicalised to %q, not a fresh copy", tok, got)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for !done.Load() {
				for _, c := range []struct {
					kind protocol.Held
					raw  string
				}{
					{protocol.HeldCred, victim},
					{protocol.HeldAccount, "victim@example.com"},
					{protocol.HeldCred, "00112233445566778899aabbccddeeff"},
				} {
					if got := svc.Canonical(c.kind, []byte(c.raw)); got != c.raw {
						fail("%q canonicalised to %q", c.raw, got)
					}
				}
			}
		}()
	}
	loggersWG.Wait()
	done.Store(true)
	readersWG.Wait()
}

// TestCanonicalNames: the service holds the first maxNames distinct
// reading and command names, of at most maxHeldName bytes, that
// statuses and controls it accepted carried — added from any number of
// goroutines at once (make race-stress runs it under -race, ten times),
// one string a name whichever goroutine added it — and the canonicaliser
// hands that string back. Decoding adds nothing: a name the table lacks
// canonicalises to a fresh copy each time, and a status or a control
// that is refused — unregistered or unknown device, forged token, a
// non-owner, a device offline — leaves the table as it was whatever
// names it carries, so what a sender puts in a frame cannot fill it.
// Reading and command names share the one bound, and a restored inbox's
// command names are the table's strings.
func TestCanonicalNames(t *testing.T) {
	svc, _, _, _ := newTestService(t, devTokenDesign())
	name := func(i int) string { return fmt.Sprintf("metric_%d", i) }
	held := func() int {
		svc.names.mu.RLock()
		defer svc.names.mu.RUnlock()
		return len(svc.names.names)
	}
	first := svc.Canonical(protocol.HeldName, []byte(name(0)))
	second := svc.Canonical(protocol.HeldName, []byte(name(0)))
	if first != name(0) || unsafe.StringData(first) == unsafe.StringData(second) {
		t.Errorf("an unheld name canonicalised to %q and %q, one string: %t", first, second, unsafe.StringData(first) == unsafe.StringData(second))
	}
	readings := []protocol.Reading{{Name: name(0)}, {Name: name(1)}}
	for _, req := range []protocol.StatusRequest{
		{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, DevToken: "forged", Readings: readings},
		{Kind: protocol.StatusRegister, DeviceID: "no-such-device", Readings: readings},
	} {
		if _, err := svc.HandleStatus(req); err == nil {
			t.Fatalf("status from %q with token %q accepted", req.DeviceID, req.DevToken)
		}
	}
	if n := held(); n != 0 {
		t.Fatalf("decoding and refused statuses left %d names in the table, want 0", n)
	}

	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]string, maxNames)
			for i := range maxNames {
				j := (i*(2*g+1) + g) % maxNames // each worker its own order
				got[g][j] = svc.names.hold(name(j))
			}
		}(g)
	}
	wg.Wait()
	for j := range maxNames {
		for g := range got {
			if got[g][j] != name(j) || unsafe.StringData(got[g][j]) != unsafe.StringData(got[0][j]) {
				t.Fatalf("%q: workers were handed different strings", name(j))
			}
		}
		if again := svc.Canonical(protocol.HeldName, []byte(name(j))); unsafe.StringData(again) != unsafe.StringData(got[0][j]) {
			t.Fatalf("%q: the canonicaliser returned another string than the table's", name(j))
		}
	}
	past := name(maxNames)
	if kept := svc.names.hold(past); unsafe.StringData(kept) != unsafe.StringData(past) || held() != maxNames {
		t.Errorf("a name past the full table: kept as another string (%t), table of %d",
			unsafe.StringData(kept) != unsafe.StringData(past), held())
	}

	var fresh nameTable
	long := strings.Repeat("m", maxHeldName+1)
	if fresh.hold(long); len(fresh.names) != 0 {
		t.Errorf("a name of %d bytes was held", len(long))
	}

	t.Run("commands", func(t *testing.T) { canonicalCommandNames(t, long) })
}

// canonicalCommandNames is TestCanonicalNames' part for command names,
// on a design whose controls need no device session.
func canonicalCommandNames(t *testing.T, long string) {
	svc, clock, victim, attacker := newTestService(t, devIDDesign())
	held := func() map[string]string {
		svc.names.mu.RLock()
		defer svc.names.mu.RUnlock()
		return maps.Clone(svc.names.names)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	control := func(id, tok, name string) error {
		_, err := svc.HandleControl(protocol.ControlRequest{DeviceID: id, UserToken: tok, Command: protocol.Command{ID: "c", Name: name}})
		return err
	}
	for _, c := range []struct {
		why     string
		id, tok string
		want    error
	}{
		{"unknown device", "no-such-device", victim, protocol.ErrUnknownDevice},
		{"non-owner", testDevice, attacker, errControlByNonOwner},
	} {
		if err := control(c.id, c.tok, "refused_"+c.why); !errors.Is(err, c.want) {
			t.Fatalf("control by %s: %v, want %v", c.why, err, c.want)
		}
	}
	clock.Advance(2 * DefaultHeartbeatTTL)
	if err := control(testDevice, victim, "refused_offline"); !errors.Is(err, errDeviceOffline) {
		t.Fatalf("control of an offline device: %v", err)
	}
	if n := len(held()); n != 0 {
		t.Fatalf("refused controls left %d names in the table, want 0", n)
	}

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		Readings: []protocol.Reading{{Name: "power_w"}}})
	on := strings.Clone("turn_on")
	for _, name := range []string{on, long} {
		if err := control(testDevice, victim, name); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(); len(got) != 2 || unsafe.StringData(got["turn_on"]) != unsafe.StringData(on) || got["power_w"] == "" {
		t.Fatalf("after an accepted status and two accepted controls the table holds %q, want power_w and turn_on, not the %d-byte name", got, len(long))
	}
	if again := svc.Canonical(protocol.HeldName, []byte("turn_on")); unsafe.StringData(again) != unsafe.StringData(on) {
		t.Errorf("the canonicaliser returned another string than the table's for an accepted command name")
	}

	// Beside the reading and the command name it holds, metric names fill
	// the table to its one bound; a command name past it is queued but
	// not held.
	for i := range maxNames - 2 {
		svc.names.hold(fmt.Sprintf("metric_%d", i))
	}
	if err := control(testDevice, victim, "past_the_bound"); err != nil {
		t.Fatal(err)
	}
	if got := held(); len(got) != maxNames || got["past_the_bound"] != "" {
		t.Errorf("a command name past a full table: held %t, table of %d", got["past_the_bound"] != "", len(got))
	}

	// A restore holds the names of the inbox it restores: into a service
	// whose table holds turn_on already, the restored command is that
	// string, not the snapshot's.
	snap := svc.Snapshot()
	back, _, _, _ := newTestService(t, devIDDesign())
	mine := back.names.hold(strings.Clone("turn_on"))
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sh, ok := back.store.peek(testDevice)
	if !ok || len(sh.commandInbox) != 3 {
		t.Fatalf("restored the device %t, want it with three commands", ok)
	}
	for i, name := range []string{mine, long, "past_the_bound"} {
		got := sh.commandInbox[i].Name
		if canon := back.Canonical(protocol.HeldName, []byte(name)); got != name ||
			(unsafe.StringData(got) == unsafe.StringData(canon)) != (name != long) {
			t.Errorf("restored command %q: the table's string %t, want %t", got, unsafe.StringData(got) == unsafe.StringData(canon), name != long)
		}
	}
	if unsafe.StringData(sh.commandInbox[0].Name) != unsafe.StringData(mine) || len(back.names.names) != 3 {
		t.Errorf("after restore the table holds %q, and turn_on is the one held before it: %t",
			back.names.names, unsafe.StringData(sh.commandInbox[0].Name) == unsafe.StringData(mine))
	}
}
