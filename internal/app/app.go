// Package app emulates the vendor's mobile app as the user's agent in
// remote binding: account login, local discovery and configuration, binding
// creation under the vendor's design, control, data access, and unbinding.
//
// SetupDevice runs the exact setup choreography the vendor's design calls
// for — bind-then-configure, configure-then-bind with or without a physical
// button press, device-initiated binding, or capability-token delivery —
// so the testbed can reproduce the setup-time attack windows the paper
// exploits (e.g. A4-2's online-unbound window).
package app

import (
	"errors"
	"fmt"
	"sync"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/retry"
	"github.com/iotbind/iotbind/internal/transport"
)

// UserActions models the physical actions the app instructs the user to
// perform during setup: pressing buttons and factory-resetting devices.
// The testbed implements it with direct device references; a remote
// attacker has no implementation — which is the point.
type UserActions interface {
	// PressButton presses the physical button on the named device.
	PressButton(localName string) error
	// ResetDevice factory-resets the named device.
	ResetDevice(localName string) error
}

// Errors returned by the app agent.
var (
	// ErrNotLoggedIn is returned by operations that need a user token.
	ErrNotLoggedIn = errors.New("app: not logged in")
	// ErrDeviceNotFound is returned when setup cannot discover the
	// target device on the LAN.
	ErrDeviceNotFound = errors.New("app: device not found on local network")
)

// App is one user's instance of the vendor app.
type App struct {
	userID   string
	password string
	design   core.DesignSpec
	cloud    transport.Cloud
	network  *localnet.Network

	wifiSSID     string
	wifiPassword string

	mu          sync.Mutex
	userToken   string
	sessions    map[string]string // deviceID -> post-binding session token
	preBindHook func()

	retryPolicy *retry.Policy
	retrier     *retry.Transport
}

// Option configures an App.
type Option interface {
	apply(*App)
}

type optionFunc func(*App)

func (f optionFunc) apply(a *App) { f(a) }

// WithWiFi sets the home Wi-Fi credentials the app provisions devices
// with.
func WithWiFi(ssid, password string) Option {
	return optionFunc(func(a *App) {
		a.wifiSSID = ssid
		a.wifiPassword = password
	})
}

// WithPreBindHook installs a callback that runs after the device comes
// online but before the app sends its binding message, in setup flows that
// have such a window. The testbed uses it to inject attacks into the A4-2
// setup window.
func WithPreBindHook(hook func()) Option { return hookOption(hook) }

// hookOption is the hook itself: a func value boxes into an Option
// without the closure an optionFunc would allocate per testbed.
type hookOption func()

func (hook hookOption) apply(a *App) { a.preBindHook = hook }

// WithRetry makes the app re-send failed cloud calls under the policy
// (see package retry), so logins, binds, unbinds and control survive
// transient transport failures. Close aborts any in-flight backoff wait.
func WithRetry(p retry.Policy) Option {
	return optionFunc(func(a *App) { a.retryPolicy = &p })
}

// New creates an app for a user account on the given home network.
func New(userID, password string, design core.DesignSpec, cloud transport.Cloud, network *localnet.Network, opts ...Option) (*App, error) {
	if err := design.Validate(); err != nil {
		return nil, fmt.Errorf("app: %w", err)
	}
	if userID == "" {
		return nil, fmt.Errorf("app: %w", errors.New("empty user ID"))
	}
	a := &App{
		userID:       userID,
		password:     password,
		design:       design,
		cloud:        cloud,
		network:      network,
		wifiSSID:     "home-wifi",
		wifiPassword: "wpa2-passphrase",
		sessions:     make(map[string]string),
	}
	for _, o := range opts {
		o.apply(a)
	}
	if a.retryPolicy != nil && a.cloud != nil {
		a.retrier = retry.Wrap(a.cloud, *a.retryPolicy)
		a.cloud = a.retrier
	}
	return a, nil
}

// Close releases the app's transport-side resources: an in-flight retry
// backoff is aborted and no further retries are attempted. The app stays
// usable — each later call still gets one delivery attempt.
func (a *App) Close() {
	a.mu.Lock()
	r := a.retrier
	a.mu.Unlock()
	if r != nil {
		r.Close()
	}
}

// UserID returns the account the app is logged into.
func (a *App) UserID() string { return a.userID }

// RegisterAccount creates the user's cloud account.
func (a *App) RegisterAccount() error {
	return a.cloud.RegisterUser(protocol.RegisterUserRequest{
		UserID:   a.userID,
		Password: a.password,
	})
}

// Login authenticates to the cloud and stores the user token.
func (a *App) Login() error {
	resp, err := a.cloud.Login(protocol.LoginRequest{
		UserID:   a.userID,
		Password: a.password,
	})
	if err != nil {
		return fmt.Errorf("app %s: login: %w", a.userID, err)
	}
	a.mu.Lock()
	a.userToken = resp.UserToken
	a.mu.Unlock()
	return nil
}

// Discover broadcasts local discovery and returns the announcements.
func (a *App) Discover() []localnet.Announcement {
	if a.network == nil {
		return nil
	}
	return a.network.Discover()
}

// SetupDevice runs the vendor's full setup flow for the named device on
// the app's home network, leaving it bound (to this user) and online when
// the flow succeeds.
func (a *App) SetupDevice(localName string, actions UserActions) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if a.network == nil {
		return fmt.Errorf("app %s: %w", a.userID, ErrDeviceNotFound)
	}

	if a.design.ResetUnbindsOnSetup {
		if actions == nil {
			return fmt.Errorf("app %s: setup requires a factory reset but no user actions available", a.userID)
		}
		if err := actions.ResetDevice(localName); err != nil {
			return fmt.Errorf("app %s: reset device: %w", a.userID, err)
		}
	}

	ann, err := a.findDevice(localName)
	if err != nil {
		return err
	}

	prov := localnet.Provisioning{
		WiFiSSID:     a.wifiSSID,
		WiFiPassword: a.wifiPassword,
	}

	// Credential preparation per the design (Figures 3 and 4).
	if a.design.EffectiveAuth() == core.AuthDevToken {
		resp, err := a.cloud.RequestDeviceToken(protocol.DeviceTokenRequest{
			UserToken:    tok,
			DeviceID:     ann.DeviceID,
			PairingProof: ann.PairingProof,
		})
		if err != nil {
			return fmt.Errorf("app %s: device token: %w", a.userID, err)
		}
		prov.DevToken = resp.DevToken
	}
	switch a.design.Binding {
	case core.BindACLDevice:
		prov.BindUserID = a.userID
		prov.BindUserPassword = a.password
	case core.BindCapability:
		resp, err := a.cloud.RequestBindToken(protocol.BindTokenRequest{
			UserToken: tok,
			DeviceID:  ann.DeviceID,
		})
		if err != nil {
			return fmt.Errorf("app %s: bind token: %w", a.userID, err)
		}
		prov.BindToken = resp.BindToken
	}

	if a.design.Binding != core.BindACLApp {
		// The device performs the binding itself once provisioned.
		if err := a.network.Provision(localName, prov); err != nil {
			return fmt.Errorf("app %s: provision: %w", a.userID, err)
		}
		return nil
	}

	onlineFirst := a.design.OnlineBeforeBind || a.design.BindButtonWindow || a.design.SourceIPCheck
	if !onlineFirst {
		// Bind first (initial -> bound), then configure the device
		// (bound -> control).
		resp, err := a.Bind(ann.DeviceID)
		if err != nil {
			return err
		}
		prov.SessionToken = resp.SessionToken
		if err := a.network.Provision(localName, prov); err != nil {
			return fmt.Errorf("app %s: provision: %w", a.userID, err)
		}
		return nil
	}

	// Configure first: the device registers and sits online-unbound —
	// the setup window attack A4-2 exploits (Section V-E).
	if err := a.network.Provision(localName, prov); err != nil {
		return fmt.Errorf("app %s: provision: %w", a.userID, err)
	}
	if a.preBindHook != nil {
		a.preBindHook()
	}
	if a.design.BindButtonWindow {
		if actions == nil {
			return fmt.Errorf("app %s: setup requires a button press but no user actions available", a.userID)
		}
		if err := actions.PressButton(localName); err != nil {
			return fmt.Errorf("app %s: press button: %w", a.userID, err)
		}
	}
	resp, err := a.Bind(ann.DeviceID)
	if err != nil {
		return err
	}
	if resp.SessionToken != "" {
		// Deliver the post-binding token to the device locally.
		if err := a.network.Provision(localName, localnet.Provisioning{SessionToken: resp.SessionToken}); err != nil {
			return fmt.Errorf("app %s: deliver session token: %w", a.userID, err)
		}
	}
	return nil
}

// Bind sends the app-initiated binding message Bind:(DevId, UserToken).
func (a *App) Bind(deviceID string) (protocol.BindResponse, error) {
	tok, err := a.token()
	if err != nil {
		return protocol.BindResponse{}, err
	}
	resp, err := a.cloud.HandleBind(protocol.BindRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Sender:    core.SenderApp,
	})
	if err != nil {
		return protocol.BindResponse{}, fmt.Errorf("app %s: bind %s: %w", a.userID, deviceID, err)
	}
	if resp.SessionToken != "" {
		a.mu.Lock()
		a.sessions[deviceID] = resp.SessionToken
		a.mu.Unlock()
	}
	return resp, nil
}

// Control sends a command to a bound device.
func (a *App) Control(deviceID string, cmd protocol.Command) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	a.mu.Lock()
	session := a.sessions[deviceID]
	a.mu.Unlock()
	resp, err := a.cloud.HandleControl(protocol.ControlRequest{
		DeviceID:     deviceID,
		UserToken:    tok,
		SessionToken: session,
		Command:      cmd,
	})
	if err != nil {
		return fmt.Errorf("app %s: control %s: %w", a.userID, deviceID, err)
	}
	if !resp.Queued {
		return fmt.Errorf("app %s: control %s: command not queued", a.userID, deviceID)
	}
	return nil
}

// PushSchedule stores user data (e.g. a smart-plug schedule) for delivery
// to the device.
func (a *App) PushSchedule(deviceID string, data protocol.UserData) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if err := a.cloud.PushUserData(protocol.PushUserDataRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Data:      data,
	}); err != nil {
		return fmt.Errorf("app %s: push data: %w", a.userID, err)
	}
	return nil
}

// Readings fetches the device readings visible to this user.
func (a *App) Readings(deviceID string) ([]protocol.Reading, error) {
	tok, err := a.token()
	if err != nil {
		return nil, err
	}
	resp, err := a.cloud.Readings(protocol.ReadingsRequest{
		DeviceID:  deviceID,
		UserToken: tok,
	})
	if err != nil {
		return nil, fmt.Errorf("app %s: readings: %w", a.userID, err)
	}
	return resp.Readings, nil
}

// Unbind removes the device from the user's account with the Type 1
// unbinding message.
func (a *App) Unbind(deviceID string) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if err := a.cloud.HandleUnbind(protocol.UnbindRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Sender:    core.SenderApp,
	}); err != nil {
		return fmt.Errorf("app %s: unbind: %w", a.userID, err)
	}
	return nil
}

// Share grants another account guest access to a device this user owns
// (many-to-one binding).
func (a *App) Share(deviceID, guest string) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if err := a.cloud.HandleShare(protocol.ShareRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Guest:     guest,
	}); err != nil {
		return fmt.Errorf("app %s: share with %s: %w", a.userID, guest, err)
	}
	return nil
}

// RevokeShare withdraws a guest's access.
func (a *App) RevokeShare(deviceID, guest string) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if err := a.cloud.HandleShare(protocol.ShareRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Guest:     guest,
		Revoke:    true,
	}); err != nil {
		return fmt.Errorf("app %s: revoke share of %s: %w", a.userID, guest, err)
	}
	return nil
}

// Shares lists the device's guests, as the owner sees them.
func (a *App) Shares(deviceID string) ([]string, error) {
	tok, err := a.token()
	if err != nil {
		return nil, err
	}
	resp, err := a.cloud.Shares(protocol.SharesRequest{DeviceID: deviceID, UserToken: tok})
	if err != nil {
		return nil, fmt.Errorf("app %s: shares: %w", a.userID, err)
	}
	return resp.Guests, nil
}

// Delegate grants another account a scoped, expiring delegation over a
// device this user owns (or has share rights on, under re-delegation).
// ttlSeconds of zero means no expiry; depth is the number of further
// re-delegation hops the grantee may perform. The returned response
// carries the delegation token the grantee can present as its control
// credential.
func (a *App) Delegate(deviceID, grantee string, scopes []string, ttlSeconds int64, depth int) (protocol.DelegateResponse, error) {
	tok, err := a.token()
	if err != nil {
		return protocol.DelegateResponse{}, err
	}
	resp, err := a.cloud.HandleDelegate(protocol.DelegateRequest{
		DeviceID:   deviceID,
		UserToken:  tok,
		Grantee:    grantee,
		Scopes:     scopes,
		TTLSeconds: ttlSeconds,
		Depth:      depth,
	})
	if err != nil {
		return protocol.DelegateResponse{}, fmt.Errorf("app %s: delegate to %s: %w", a.userID, grantee, err)
	}
	return resp, nil
}

// RevokeDelegation withdraws a grantee's delegation (and, under the
// cascade design, everything the grantee re-delegated).
func (a *App) RevokeDelegation(deviceID, grantee string) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	if err := a.cloud.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
		DeviceID:  deviceID,
		UserToken: tok,
		Grantee:   grantee,
	}); err != nil {
		return fmt.Errorf("app %s: revoke delegation of %s: %w", a.userID, grantee, err)
	}
	return nil
}

// Delegations lists the device's delegation grants as this user is
// allowed to see them: the owner sees the whole lattice, a delegate
// sees its own grant and the ones it issued.
func (a *App) Delegations(deviceID string) ([]protocol.DelegationInfo, error) {
	tok, err := a.token()
	if err != nil {
		return nil, err
	}
	resp, err := a.cloud.ListDelegations(protocol.ListDelegationsRequest{DeviceID: deviceID, UserToken: tok})
	if err != nil {
		return nil, fmt.Errorf("app %s: delegations: %w", a.userID, err)
	}
	return resp.Grants, nil
}

// ControlWithCredential issues a control using an explicit credential —
// the delegated-control path, where the caller presents a delegation
// token instead of a logged-in user token.
func (a *App) ControlWithCredential(deviceID, credential string, cmd protocol.Command) error {
	resp, err := a.cloud.HandleControl(protocol.ControlRequest{
		DeviceID:  deviceID,
		UserToken: credential,
		Command:   cmd,
	})
	if err != nil {
		return fmt.Errorf("app %s: delegated control %s: %w", a.userID, deviceID, err)
	}
	if !resp.Queued {
		return fmt.Errorf("app %s: delegated control %s: command not queued", a.userID, deviceID)
	}
	return nil
}

// SessionToken returns the post-binding token the app holds for a device
// (empty when the design has none).
func (a *App) SessionToken(deviceID string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sessions[deviceID]
}

func (a *App) token() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.userToken == "" {
		return "", fmt.Errorf("app %s: %w", a.userID, ErrNotLoggedIn)
	}
	return a.userToken, nil
}

func (a *App) findDevice(localName string) (localnet.Announcement, error) {
	for _, ann := range a.network.Discover() {
		if ann.LocalName == localName {
			return ann, nil
		}
	}
	return localnet.Announcement{}, fmt.Errorf("app %s: %q: %w", a.userID, localName, ErrDeviceNotFound)
}
