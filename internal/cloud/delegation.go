package cloud

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
)

// HandleDelegate records a scoped, expiring, depth-limited grant in the
// device's delegation lattice and mints a delegation token from it.
func (s *Service) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	resp, err := s.handleDelegate(req)
	s.countOutcome(err, &s.stats.delegationsGranted, &s.stats.delegationsRejected)
	return resp, err
}

// HandleRevokeDelegation withdraws a grant, cascading to every grant
// derived from it when the design revokes cascades.
func (s *Service) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	err := s.handleRevokeDelegation(req)
	s.countOutcome(err, &s.stats.delegationsRevoked, &s.stats.delegationsRejected)
	return err
}

func (s *Service) handleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	if !s.accounts.exists(req.Grantee) {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: grantee %q: %w", req.Grantee, protocol.ErrBadRequest)
	}
	scopes, err := delegation.ParseScopes(req.Scopes)
	if err != nil {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrBadRequest, err)
	}
	if req.TTLSeconds < 0 {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: negative ttl: %w", protocol.ErrBadRequest)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	sh.refresh(now, DefaultHeartbeatTTL)

	// A redelivered delegate replays the token it minted the first time
	// rather than minting (and re-granting) again. Fingerprint-gated like
	// binds: the key alone must not read another request's token.
	fp := delegateFingerprint(req)
	if r, ok, conflict := sh.replayIdem(req.IdempotencyKey, idemDelegate, fp); ok {
		s.stats.delegationsDeduplicated.Add(1)
		return r.delegate, nil
	} else if conflict {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: idempotency key reused by a different request: %w", protocol.ErrAuthFailed)
	}

	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() {
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}

	var expiry time.Time
	if req.TTLSeconds > 0 {
		expiry = now.Add(time.Duration(req.TTLSeconds) * time.Second)
	}
	if sh.deleg == nil {
		sh.deleg = delegation.New(sh.boundUser)
	}
	severed, err := sh.deleg.Grant(delegation.Grant{
		Grantor: userTok.Subject,
		Grantee: req.Grantee,
		Scopes:  scopes,
		Expiry:  expiry,
		Depth:   req.Depth,
	}, now, s.design.DelegationScopeAttenuation)
	if err != nil {
		return protocol.DelegateResponse{}, delegationError(err)
	}
	// Replacement invalidates the grantee's previously minted tokens along
	// with the severed subtree's: the fresh grant speaks through the fresh
	// token only.
	s.retireDelegationTokens(sh.deviceID, severed)
	s.issuer.RevokeOwnedSubject(token.KindDelegation, req.Grantee, sh.deviceID)

	ttl := time.Duration(0)
	if !expiry.IsZero() {
		ttl = expiry.Sub(now)
	}
	delegTok, err := s.issuer.Issue(token.KindDelegation, req.Grantee, req.DeviceID, ttl)
	if err != nil {
		sh.deleg.Revoke(req.Grantee, true)
		return protocol.DelegateResponse{}, fmt.Errorf("cloud: issue delegation token: %w", err)
	}
	resp := protocol.DelegateResponse{DelegationToken: delegTok.Value, ExpiresAt: expiry}
	if req.IdempotencyKey != "" {
		sh.recordIdem(req.IdempotencyKey, idemResult{op: idemDelegate, fingerprint: fp, delegate: resp})
	}
	return resp, nil
}

func (s *Service) handleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	sh.refresh(now, DefaultHeartbeatTTL)

	// A redelivered revoke replays its recorded success instead of
	// executing again — the regression this guards: grant, revoke, grant
	// again, then the revoke's redelivery arrives; replay keeps the newer
	// grant alive where re-execution would silently sever it.
	fp := revokeDelegationFingerprint(req)
	if _, ok, conflict := sh.replayIdem(req.IdempotencyKey, idemRevokeDelegation, fp); ok {
		s.stats.delegationsDeduplicated.Add(1)
		return nil
	} else if conflict {
		return fmt.Errorf("cloud: idempotency key reused by a different request: %w", protocol.ErrAuthFailed)
	}

	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() {
		return fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}
	caller := userTok.Subject
	if sh.deleg != nil {
		if g, ok := sh.deleg.Get(req.Grantee); ok {
			if caller != sh.boundUser && caller != g.Grantor {
				return fmt.Errorf("cloud: revoke by neither owner nor grantor: %w", protocol.ErrNotPermitted)
			}
			severed := sh.deleg.Revoke(req.Grantee, s.design.DelegationCascadeRevoke)
			s.retireDelegationTokens(sh.deviceID, severed)
		}
	}
	// Revoking an absent grant succeeds (like share revocation): the goal
	// state — no grant — already holds, and redeliveries must agree.
	if req.IdempotencyKey != "" {
		sh.recordIdem(req.IdempotencyKey, idemResult{op: idemRevokeDelegation, fingerprint: fp})
	}
	return nil
}

// ListDelegations reports a device's delegation grants: every grant to
// the bound owner, and only the caller's own grants (held or made) to
// anyone else.
func (s *Service) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.ListDelegationsResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return protocol.ListDelegationsResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() {
		return protocol.ListDelegationsResponse{}, fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}
	caller := userTok.Subject
	resp := protocol.ListDelegationsResponse{Grants: []protocol.DelegationInfo{}}
	if sh.deleg == nil {
		return resp, nil
	}
	for _, g := range sh.deleg.Grants() {
		if caller != sh.boundUser && caller != g.Grantee && caller != g.Grantor {
			continue
		}
		resp.Grants = append(resp.Grants, protocol.DelegationInfo{
			Grantor:   g.Grantor,
			Grantee:   g.Grantee,
			Scopes:    g.Scopes.Names(),
			ExpiresAt: g.Expiry,
			Depth:     g.Depth,
		})
	}
	return resp, nil
}

// retireDelegationTokens revokes the delegation tokens minted for the
// given grantees on one device. The caller holds the shadow's lock; the
// issuer's lock nests inside it (the revokeBinding nesting).
func (s *Service) retireDelegationTokens(deviceID string, grantees []string) {
	for _, g := range grantees {
		s.issuer.RevokeOwnedSubject(token.KindDelegation, g, deviceID)
	}
}

// delegationError maps lattice errors to the protocol vocabulary:
// authority and policy failures are permission errors, structural ones
// are bad requests.
func delegationError(err error) error {
	switch {
	case errors.Is(err, delegation.ErrNoAuthority),
		errors.Is(err, delegation.ErrDepthExhausted),
		errors.Is(err, delegation.ErrEscalation):
		return fmt.Errorf("cloud: delegate: %w: %v", protocol.ErrNotPermitted, err)
	default:
		return fmt.Errorf("cloud: delegate: %w: %v", protocol.ErrBadRequest, err)
	}
}

func delegateFingerprint(req protocol.DelegateRequest) [32]byte {
	var stack [fpStack]byte
	b := fpStr(stack[:0], "delegate")
	b = fpStr(b, req.DeviceID)
	b = fpStr(b, req.UserToken)
	b = fpStr(b, req.Grantee)
	b = fpInt(b, req.TTLSeconds)
	b = fpInt(b, int64(req.Depth))
	for _, scope := range req.Scopes {
		b = fpStr(b, scope)
	}
	return sha256.Sum256(b)
}

func revokeDelegationFingerprint(req protocol.RevokeDelegationRequest) [32]byte {
	return requestFingerprint("revoke_delegation", req.DeviceID, req.UserToken, req.Grantee)
}
