package cloud

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
)

// shareScopes is the fixed authority a flat share grants: control and
// read, no re-delegation. The share surface predates the delegation
// lattice and keeps its exact semantics as a compatibility wrapper over
// owner-rooted grants.
const shareScopes = delegation.ScopeControl | delegation.ScopeRead

// HandleShare grants or revokes guest access to a bound device (the
// many-to-one binding of Section III-B). Only the bound owner may manage
// shares; guest authority derives from the owner's binding and is cleared
// whenever that binding is revoked or replaced. Internally a share is a
// depth-0 control+read grant in the device's delegation lattice.
func (s *Service) HandleShare(req protocol.ShareRequest) error {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}
	if !s.accounts.exists(req.Guest) {
		return fmt.Errorf("cloud: guest %q: %w", req.Guest, protocol.ErrBadRequest)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.now()
	sh.refresh(now, DefaultHeartbeatTTL)

	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() {
		return fmt.Errorf("cloud: %w", protocol.ErrNotBound)
	}
	if sh.boundUser != userTok.Subject {
		return fmt.Errorf("cloud: share by non-owner: %w", protocol.ErrNotPermitted)
	}
	if req.Guest == sh.boundUser {
		return fmt.Errorf("cloud: owner cannot be their own guest: %w", protocol.ErrBadRequest)
	}

	if req.Revoke {
		if sh.deleg != nil {
			severed := sh.deleg.Revoke(req.Guest, s.design.DelegationCascadeRevoke)
			s.retireDelegationTokens(sh.deviceID, severed)
		}
		return nil
	}
	if sh.deleg == nil {
		sh.deleg = delegation.New(sh.boundUser)
	}
	severed, err := sh.deleg.Grant(delegation.Grant{
		Grantor: sh.boundUser,
		Grantee: req.Guest,
		Scopes:  shareScopes,
	}, now, s.design.DelegationScopeAttenuation)
	if err != nil {
		return fmt.Errorf("cloud: share: %w: %v", protocol.ErrBadRequest, err)
	}
	s.retireDelegationTokens(sh.deviceID, severed)
	return nil
}

// Shares lists the accounts the owner has directly granted access to
// (flat shares and direct delegations alike); only the bound owner may
// ask.
func (s *Service) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	if _, ok := s.registry.Lookup(req.DeviceID); !ok {
		return protocol.SharesResponse{}, fmt.Errorf("cloud: %q: %w", req.DeviceID, protocol.ErrUnknownDevice)
	}

	sh := s.store.get(req.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	userTok, err := s.issuer.Verify(token.KindUser, req.UserToken)
	if err != nil {
		return protocol.SharesResponse{}, fmt.Errorf("cloud: %w: %v", protocol.ErrAuthFailed, err)
	}
	if !sh.state().BoundToUser() || sh.boundUser != userTok.Subject {
		return protocol.SharesResponse{}, fmt.Errorf("cloud: %w", protocol.ErrNotPermitted)
	}
	var guests []string
	if sh.deleg != nil {
		guests = sh.deleg.DirectGrantees()
	}
	if guests == nil {
		guests = []string{}
	}
	return protocol.SharesResponse{Guests: guests}, nil
}
