package cloud

import (
	"crypto/subtle"
	"fmt"
	"sync"

	"github.com/iotbind/iotbind/internal/protocol"
)

// accountStore holds user accounts with password-based authentication, the
// scheme IoT vendors typically deploy (Section II-B).
type accountStore struct {
	mu        sync.RWMutex
	passwords map[string]string
}

// register creates an account.
func (s *accountStore) register(userID, password string) error {
	if userID == "" || password == "" {
		return errEmptyAccount
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.passwords[userID]; exists {
		return fmt.Errorf("accounts: %q: %w", userID, protocol.ErrUserExists)
	}
	s.passwords[userID] = password
	return nil
}

// authenticate verifies a password in constant time.
func (s *accountStore) authenticate(userID, password string) error {
	s.mu.RLock()
	stored, ok := s.passwords[userID]
	s.mu.RUnlock()
	if !ok {
		// Burn comparable time for unknown users so account existence
		// does not leak through timing.
		subtle.ConstantTimeCompare([]byte(password), []byte(password))
		return errAccountAuth
	}
	if subtle.ConstantTimeCompare([]byte(stored), []byte(password)) != 1 {
		return errAccountAuth
	}
	return nil
}

// exists reports whether an account is registered.
func (s *accountStore) exists(userID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.passwords[userID]
	return ok
}

// export copies the account table, for persistence.
func (s *accountStore) export() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.passwords))
	for u, p := range s.passwords {
		out[u] = p
	}
	return out
}

// replace swaps in a persisted account table.
func (s *accountStore) replace(accounts map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passwords = make(map[string]string, len(accounts))
	for u, p := range accounts {
		s.passwords[u] = p
	}
}
