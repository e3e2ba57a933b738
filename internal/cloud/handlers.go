package cloud

import (
	"github.com/iotbind/iotbind/internal/protocol"
)

// The exported handler surface wraps the handler cores with activity
// counting so Stats reflects every accepted and rejected operation. The
// counters are lock-free atomics, so counting never serializes handlers.

// RegisterUser creates a user account.
func (s *Service) RegisterUser(req protocol.RegisterUserRequest) error {
	err := s.registerUser(req)
	if err == nil {
		s.stats.UsersRegistered.Add(1)
	}
	return err
}

// Login authenticates a user and issues a UserToken.
func (s *Service) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	resp, err := s.login(req)
	s.countOutcome(err, &s.stats.Logins, &s.stats.LoginFailures)
	return resp, err
}

// RequestDeviceToken issues a dynamic device token (Figure 3, Type 1).
// The pairing proof demonstrates local possession of the device: it is
// revealed by the device over the local network while in setup mode, so a
// remote attacker cannot satisfy this check.
func (s *Service) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	resp, err := s.requestDeviceToken(req)
	if err == nil {
		s.stats.DeviceTokensIssued.Add(1)
	}
	return resp, err
}

// RequestBindToken issues a capability binding token (Figure 4c). The
// token is worthless without local delivery to the device: the device must
// submit it back together with a factory-secret proof.
func (s *Service) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	resp, err := s.requestBindToken(req)
	if err == nil {
		s.stats.BindTokensIssued.Add(1)
	}
	return resp, err
}

// HandleStatus processes a device status message: authentication (per the
// design's mode), online marking, reading ingestion, and delivery of
// pending commands and user data.
func (s *Service) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	return s.handleStatusCounted(req, nil)
}

// handleStatusCounted is HandleStatus with an explicit operation
// environment: the durable layer's sharded hot path pins the clock and
// nonce source per operation instead of through the process-wide
// injected sources.
func (s *Service) handleStatusCounted(req protocol.StatusRequest, env *opEnv) (protocol.StatusResponse, error) {
	resp, err := s.handleStatus(req, env)
	s.countOutcome(err, &s.stats.StatusAccepted, &s.stats.StatusRejected)
	return resp, err
}

// HandleBind processes a binding-creation message under the design's
// mechanism and policy checks (Figure 4 / Sections IV-B, V-C, V-E).
func (s *Service) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	resp, err := s.handleBind(req)
	s.countOutcome(err, &s.stats.BindsAccepted, &s.stats.BindsRejected)
	return resp, err
}

// HandleUnbind processes a binding-revocation message (Section IV-C).
func (s *Service) HandleUnbind(req protocol.UnbindRequest) error {
	err := s.handleUnbind(req)
	s.countOutcome(err, &s.stats.UnbindsAccepted, &s.stats.UnbindsRejected)
	return err
}

// HandleControl relays a command from the bound user to the device.
func (s *Service) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	resp, err := s.handleControl(req)
	s.countOutcome(err, &s.stats.ControlsQueued, &s.stats.ControlsRejected)
	return resp, err
}
