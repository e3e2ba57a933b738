package cloud

import (
	"fmt"
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
