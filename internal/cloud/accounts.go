package cloud

import (
	"crypto/subtle"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/iotbind/iotbind/internal/protocol"
)

// accountStore holds user accounts with password-based authentication, the
// scheme IoT vendors typically deploy (Section II-B).
type accountStore struct {
	mu       sync.RWMutex
	accounts map[string]account
	// writes counts the calls that wrote accounts, each bumping it
	// under mu; Checkpoint reads it without.
	writes atomic.Uint64
}

// account keeps the ID beside the password, for canonical to hand out.
type account struct{ id, password string }

// register creates an account.
func (s *accountStore) register(userID, password string) error {
	if userID == "" || password == "" {
		return errEmptyAccount
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.accounts[userID]; exists {
		return fmt.Errorf("accounts: %q: %w", userID, protocol.ErrUserExists)
	}
	s.accounts[userID] = account{userID, password}
	s.writes.Add(1)
	return nil
}

// authenticate verifies a password in constant time.
func (s *accountStore) authenticate(userID, password string) error {
	s.mu.RLock()
	stored, ok := s.accounts[userID]
	s.mu.RUnlock()
	if !ok {
		// Burn comparable time for unknown users so account existence
		// does not leak through timing.
		subtle.ConstantTimeCompare([]byte(password), []byte(password))
		return errAccountAuth
	}
	if subtle.ConstantTimeCompare([]byte(stored.password), []byte(password)) != 1 {
		return errAccountAuth
	}
	return nil
}

// exists reports whether an account is registered.
func (s *accountStore) exists(userID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.accounts[userID]
	return ok
}

// canonical returns the store's own string for the account raw names, or
// a copy of raw. Never ask it for a UserID authenticate will check.
func (s *accountStore) canonical(raw []byte) string {
	s.mu.RLock()
	a, ok := s.accounts[string(raw)]
	s.mu.RUnlock()
	if ok {
		return a.id
	}
	return string(raw)
}

// export copies the account table, for persistence.
func (s *accountStore) export() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.accounts))
	for u, a := range s.accounts {
		out[u] = a.password
	}
	return out
}

// replace swaps in a persisted account table, emptying the map in place.
func (s *accountStore) replace(accounts map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.accounts)
	for u, p := range accounts {
		s.accounts[u] = account{u, p}
	}
	s.writes.Add(1)
}

// appendTo appends every account to dst, in no particular order.
func (s *accountStore) appendTo(dst []account) []account {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, a := range s.accounts {
		dst = append(dst, a)
	}
	return dst
}

// put empties the table in place and puts accounts in it.
func (s *accountStore) put(accounts []account) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.accounts)
	for _, a := range accounts {
		s.accounts[a.id] = a
	}
	s.writes.Add(1)
}
