package cloud

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

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

// TestCanonicalReadingNames: the service holds the first maxReadingNames
// distinct names, of at most maxHeldName bytes, that statuses it accepted
// carried — added from any number of goroutines at once (make
// race-stress runs it under -race, ten times), one string a name
// whichever goroutine added it — and the canonicaliser hands that string
// back. Decoding adds nothing: a name the table lacks canonicalises to a
// fresh copy each time, and a status that is refused, or that names no
// registered device, leaves the table as it was whatever names it
// carries, so what a sender puts in a frame cannot fill it.
func TestCanonicalReadingNames(t *testing.T) {
	svc, _, _, _ := newTestService(t, devTokenDesign())
	name := func(i int) string { return fmt.Sprintf("metric_%d", i) }
	held := func() int {
		svc.names.mu.RLock()
		defer svc.names.mu.RUnlock()
		return len(svc.names.names)
	}
	first := svc.Canonical(protocol.HeldReading, []byte(name(0)))
	second := svc.Canonical(protocol.HeldReading, []byte(name(0)))
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
			got[g] = make([]string, maxReadingNames)
			for i := range maxReadingNames {
				j := (i*(2*g+1) + g) % maxReadingNames // each worker its own order
				got[g][j] = svc.names.hold(name(j))
			}
		}(g)
	}
	wg.Wait()
	for j := range maxReadingNames {
		for g := range got {
			if got[g][j] != name(j) || unsafe.StringData(got[g][j]) != unsafe.StringData(got[0][j]) {
				t.Fatalf("%q: workers were handed different strings", name(j))
			}
		}
		if again := svc.Canonical(protocol.HeldReading, []byte(name(j))); unsafe.StringData(again) != unsafe.StringData(got[0][j]) {
			t.Fatalf("%q: the canonicaliser returned another string than the table's", name(j))
		}
	}
	past := name(maxReadingNames)
	if kept := svc.names.hold(past); unsafe.StringData(kept) != unsafe.StringData(past) || held() != maxReadingNames {
		t.Errorf("a name past the full table: kept as another string (%t), table of %d",
			unsafe.StringData(kept) != unsafe.StringData(past), held())
	}

	var fresh readingNames
	long := strings.Repeat("m", maxHeldName+1)
	if fresh.hold(long); len(fresh.names) != 0 {
		t.Errorf("a name of %d bytes was held", len(long))
	}
}
