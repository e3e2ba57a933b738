package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// DeviceAuthMode is the device-authentication design of a remote-binding
// solution (Figure 3 plus the public-key variant discussed in Section IV-A).
type DeviceAuthMode int

// Device-authentication modes.
const (
	// AuthDevToken (Figure 3, Type 1): the app requests a random device
	// token from the cloud and delivers it to the device during local
	// configuration; the device authenticates with that token.
	AuthDevToken DeviceAuthMode = iota + 1
	// AuthDevID (Figure 3, Type 2): the device authenticates with a static
	// identifier such as a MAC address or serial number. Anyone who learns
	// the identifier can impersonate the device.
	AuthDevID
	// AuthPublicKey: a per-device key pair provisioned at manufacturing
	// (AWS IoT / IBM Watson / Google Cloud IoT style). Rare in commercial
	// products because it needs trusted hardware.
	AuthPublicKey
	// AuthUnknown marks products whose device authentication the paper
	// could not confirm because the firmware resisted analysis. Emulated
	// vendors with AuthUnknown still need a concrete internal mode; see
	// DesignSpec.EffectiveAuth.
	AuthUnknown
)

// String implements fmt.Stringer using the paper's notation.
func (m DeviceAuthMode) String() string {
	switch m {
	case AuthDevToken:
		return "DevToken"
	case AuthDevID:
		return "DevId"
	case AuthPublicKey:
		return "PublicKey"
	case AuthUnknown:
		return "O"
	default:
		return fmt.Sprintf("DeviceAuthMode(%d)", int(m))
	}
}

// BindMechanism is the binding-creation design (Figure 4).
type BindMechanism int

// Binding-creation mechanisms.
const (
	// BindACLApp (Figure 4a): the app sends Bind:(DevId, UserToken); the
	// cloud records the pair in an access-control list.
	BindACLApp BindMechanism = iota + 1
	// BindACLDevice (Figure 4b): the user's credential (UserId, UserPw) is
	// delivered to the device during local configuration and the device
	// sends the binding message.
	BindACLDevice
	// BindCapability (Figure 4c): the cloud issues a random BindToken to
	// the user, who delivers it to the device over the local network; the
	// device submits the token back, proving local ownership.
	BindCapability
)

// String implements fmt.Stringer.
func (m BindMechanism) String() string {
	switch m {
	case BindACLApp:
		return "ACL (sent by the app)"
	case BindACLDevice:
		return "ACL (sent by the device)"
	case BindCapability:
		return "Capability (BindToken)"
	default:
		return fmt.Sprintf("BindMechanism(%d)", int(m))
	}
}

// UnbindForm is one accepted shape of unbinding request (Section IV-C).
type UnbindForm int

// Unbinding request forms.
const (
	// UnbindDevIDUserToken (Type 1): Unbind:(DevId, UserToken).
	UnbindDevIDUserToken UnbindForm = iota + 1
	// UnbindDevIDAlone (Type 2): Unbind:DevId, typically sent by the
	// device itself during a physical reset.
	UnbindDevIDAlone
	// UnbindReplaceByBind (Type 3): the design has no unbind operation at
	// all; a new binding message replaces the previous binding.
	UnbindReplaceByBind
)

// String implements fmt.Stringer using the paper's notation.
func (f UnbindForm) String() string {
	switch f {
	case UnbindDevIDUserToken:
		return "(DevId, UserToken)"
	case UnbindDevIDAlone:
		return "DevId"
	case UnbindReplaceByBind:
		return "N.A."
	default:
		return fmt.Sprintf("UnbindForm(%d)", int(f))
	}
}

// DesignSpec describes one remote-binding solution: the identifier and
// message designs of Section IV plus the cloud-side policy checks whose
// presence or absence decides the outcome of every attack in Section V.
//
// The zero value is not a valid spec; use Validate before relying on one.
type DesignSpec struct {
	// Name identifies the solution (vendor or reference design name).
	Name string

	// DeviceAuth is the device-authentication mode the product uses, or
	// AuthUnknown when the paper could not confirm it.
	DeviceAuth DeviceAuthMode

	// AssumedAuth supplies the concrete authentication mode the emulation
	// uses when DeviceAuth is AuthUnknown. Ignored otherwise.
	AssumedAuth DeviceAuthMode

	// Binding is the binding-creation mechanism.
	Binding BindMechanism

	// UnbindForms lists every unbinding request shape the cloud accepts.
	// Empty together with ReplaceOnBind means Type 3 (no unbind support).
	UnbindForms []UnbindForm

	// CheckBoundUserOnBind makes the cloud reject a Bind for a device that
	// is already bound to a *different* user. When false the new binding
	// silently replaces the old one (or coexists incorrectly).
	CheckBoundUserOnBind bool

	// CheckBoundUserOnUnbind makes the cloud verify that the UserToken in
	// a Type 1 unbind belongs to the currently bound user. Its absence is
	// vulnerability A3-2.
	CheckBoundUserOnUnbind bool

	// ReplaceOnBind makes a newly accepted Bind replace any existing
	// binding instead of being rejected. This is the Type 3 unbind design
	// and also models clouds that blindly overwrite (device #9).
	ReplaceOnBind bool

	// PostBindingToken issues a fresh random token to both the user and
	// the device when a binding is created; subsequent control-plane and
	// device messages must carry it (Section IV-B, the KONKE defence).
	// It blocks control-plane forgery after a successful bind forgery but
	// not the bind forgery itself.
	PostBindingToken bool

	// SourceIPCheck makes the cloud compare the source IP address of the
	// device registration triggered by a physical button press with the
	// source IP of the user's bind request, accepting the bind only when
	// they match (the Philips Hue defence, Section VI-B). In the setup
	// sequence it places the device's registration before an app-sent
	// bind, since the cloud must have seen the device's address first.
	SourceIPCheck bool

	// BindButtonWindow requires a physical button press on the device to
	// open a short binding window (Philips Hue). In the setup sequence it
	// places the press before the bind: after the device's registration
	// when the app binds, during the device's joining registration when
	// the device binds.
	BindButtonWindow bool

	// OnlineBeforeBind reports whether the device connects and
	// authenticates to the cloud before any binding exists, exposing the
	// online-unbound setup window that attack A4-2 exploits (device #6).
	// In the setup sequence it places the device's registration before
	// an app-sent bind; a device-sent bind follows the registration
	// anyway.
	OnlineBeforeBind bool

	// SessionTiedBinding ties the binding's validity to the device's
	// authenticated session: a status message from a "new" device instance
	// replaces the session and drops the binding (device #8; enables A3-4
	// and redirects forged status away from data injection).
	SessionTiedBinding bool

	// DataRequiresSession requires data-bearing device messages to prove a
	// handshake that only the real firmware (holding the factory secret)
	// can complete: the register response carries a session nonce and
	// readings are accepted only with an HMAC of that nonce under the
	// factory secret. It models products whose boot/registration messages
	// are forgeable from static firmware analysis but whose in-session
	// data traffic is not (device #8), so status forgery can unbind (A3-4)
	// but cannot inject or steal data (A1).
	DataRequiresSession bool

	// DelegationScopeAttenuation makes the cloud enforce monotone
	// attenuation on re-delegation: a derived grant may carry only a
	// subset of its grantor's scopes, a strictly smaller re-delegation
	// depth, and no longer an expiry. Its absence is vulnerability A6-2
	// (re-delegation privilege escalation): a read-only guest with the
	// share scope can mint a control grant for an accomplice.
	DelegationScopeAttenuation bool

	// DelegationCascadeRevoke makes revoking a grant atomically sever
	// every grant derived from it. Its absence is vulnerability A6-1
	// (evicted-guest residual control): a guest who re-delegated to a
	// second account they control keeps controlling the device through
	// that surviving derived grant after their own eviction.
	DelegationCascadeRevoke bool

	// DelegationCheckAtUse makes the cloud re-verify the whole grant
	// chain in the delegation lattice at every use of a delegation
	// token, under the device shadow's lock — so a control attempt
	// racing a revocation loses deterministically. Its absence is
	// vulnerability A6-3 (revocation-race window): a minted delegation
	// token keeps its authority until its own expiry, outliving the
	// revocation of the grant it came from.
	DelegationCheckAtUse bool

	// ResetUnbindsOnSetup models products whose normal setup flow resets
	// the device, emitting an Unbind:DevId that clears any pre-existing
	// (attacker-planted) binding, so binding denial-of-service self-heals
	// (device #8).
	ResetUnbindsOnSetup bool

	// FirmwareOpaque records that the paper could not forge device
	// messages for this product (no firmware image or analysis failed);
	// device-message attacks are reported as unconfirmed ("O").
	FirmwareOpaque bool
}

// EffectiveAuth returns the concrete device-authentication mode the
// emulation should implement: DeviceAuth itself, or AssumedAuth when the
// paper-reported mode is unknown.
func (d DesignSpec) EffectiveAuth() DeviceAuthMode {
	if d.DeviceAuth == AuthUnknown {
		return d.AssumedAuth
	}
	return d.DeviceAuth
}

// Setup is the owner's setup sequence for a design (Figures 3 and 4,
// Section V-E): a factory reset if Reset, then the device's join — its
// registration — and the bind in the order RegisterFirst gives, the
// button pressed before the bind if Press. It is the one place the order
// is decided; the app walks it, the device reads its press from it, and
// the model checker and the analyzer read its windows off it.
type Setup struct {
	// Reset: the owner factory-resets the device before anything else
	// (ResetUnbindsOnSetup).
	Reset bool
	// Binder sends the bind: the app for BindACLApp, the device itself
	// (with the user's credential or a capability) otherwise.
	Binder Sender
	// RegisterFirst: the device registers before the bind. A device-sent
	// bind always follows the device's registration; an app-sent one
	// follows it under OnlineBeforeBind, BindButtonWindow or
	// SourceIPCheck and precedes it otherwise.
	RegisterFirst bool
	// Press: the owner presses the device's button before the bind
	// (BindButtonWindow) — after the registration for an app-sent bind,
	// held while the device joins for a device-sent one.
	Press bool
}

// Setup returns the design's setup sequence.
func (d DesignSpec) Setup() Setup {
	s := Setup{Reset: d.ResetUnbindsOnSetup, Binder: SenderDevice, RegisterFirst: true, Press: d.BindButtonWindow}
	if d.Binding == BindACLApp {
		s.Binder = SenderApp
		s.RegisterFirst = d.OnlineBeforeBind || d.BindButtonWindow || d.SourceIPCheck
	}
	return s
}

// OnlineUnbound reports whether the sequence leaves the device online and
// unbound for a while: registered, waiting for the app's bind. That
// window is where A4-2 binds first.
func (s Setup) OnlineUnbound() bool { return s.Binder == SenderApp && s.RegisterFirst }

// Equal reports whether d and o are the same design: every field equal,
// UnbindForms by content (the same forms in the same order), so two
// designs that share a Name but not their forms differ.
func (d DesignSpec) Equal(o DesignSpec) bool {
	return d.Name == o.Name && d.DeviceAuth == o.DeviceAuth && d.AssumedAuth == o.AssumedAuth &&
		d.Binding == o.Binding && slices.Equal(d.UnbindForms, o.UnbindForms) &&
		d.CheckBoundUserOnBind == o.CheckBoundUserOnBind && d.CheckBoundUserOnUnbind == o.CheckBoundUserOnUnbind &&
		d.ReplaceOnBind == o.ReplaceOnBind && d.PostBindingToken == o.PostBindingToken &&
		d.SourceIPCheck == o.SourceIPCheck && d.BindButtonWindow == o.BindButtonWindow &&
		d.OnlineBeforeBind == o.OnlineBeforeBind && d.SessionTiedBinding == o.SessionTiedBinding &&
		d.DataRequiresSession == o.DataRequiresSession &&
		d.DelegationScopeAttenuation == o.DelegationScopeAttenuation &&
		d.DelegationCascadeRevoke == o.DelegationCascadeRevoke && d.DelegationCheckAtUse == o.DelegationCheckAtUse &&
		d.ResetUnbindsOnSetup == o.ResetUnbindsOnSetup && d.FirmwareOpaque == o.FirmwareOpaque
}

// SupportsUnbind reports whether the cloud accepts the given unbind form.
func (d DesignSpec) SupportsUnbind(f UnbindForm) bool {
	for _, have := range d.UnbindForms {
		if have == f {
			return true
		}
	}
	return false
}

// UnbindNotation renders the unbind column of Table III for this design.
func (d DesignSpec) UnbindNotation() string {
	if len(d.UnbindForms) == 0 {
		return "N.A."
	}
	parts := make([]string, 0, len(d.UnbindForms))
	for _, f := range d.UnbindForms {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, " & ")
}

// Validation errors returned by DesignSpec.Validate.
var (
	errNoName          = errors.New("design: missing name")
	errBadAuthMode     = errors.New("design: invalid device authentication mode")
	errBadAssumedAuth  = errors.New("design: AuthUnknown requires a concrete AssumedAuth")
	errBadBinding      = errors.New("design: invalid binding mechanism")
	errBadUnbindForm   = errors.New("design: invalid unbind form")
	errReplaceConflict = errors.New("design: UnbindReplaceByBind form requires ReplaceOnBind")
	errPostBindingMech = errors.New("design: PostBindingToken requires app-initiated ACL binding")
)

// Validate checks internal consistency of the spec.
func (d DesignSpec) Validate() error {
	if d.Name == "" {
		return errNoName
	}
	switch d.DeviceAuth {
	case AuthDevToken, AuthDevID, AuthPublicKey:
	case AuthUnknown:
		switch d.AssumedAuth {
		case AuthDevToken, AuthDevID, AuthPublicKey:
		default:
			return fmt.Errorf("%w (got %v)", errBadAssumedAuth, d.AssumedAuth)
		}
	default:
		return fmt.Errorf("%w (got %v)", errBadAuthMode, d.DeviceAuth)
	}
	switch d.Binding {
	case BindACLApp, BindACLDevice, BindCapability:
	default:
		return fmt.Errorf("%w (got %v)", errBadBinding, d.Binding)
	}
	if d.PostBindingToken && d.Binding != BindACLApp {
		// The post-binding token is returned to the binder and must also
		// reach the user's app for control; the designs the paper
		// observed pair it with app-initiated binding.
		return errPostBindingMech
	}
	for _, f := range d.UnbindForms {
		switch f {
		case UnbindDevIDUserToken, UnbindDevIDAlone:
		case UnbindReplaceByBind:
			if !d.ReplaceOnBind {
				return errReplaceConflict
			}
		default:
			return fmt.Errorf("%w (got %v)", errBadUnbindForm, f)
		}
	}
	return nil
}

// EachDesign calls yield with every design Validate admits, until yield
// returns false: each auth mode, binding and set of unbind forms, under
// every setting of the fourteen flags. Specs that differ only in what no
// checker reads count once — the Name, the order or repetition of
// UnbindForms, and AuthUnknown, which every checker reads through its
// AssumedAuth. The yielded UnbindForms are shared; do not modify them.
func EachDesign(yield func(DesignSpec) bool) {
	for auth := AuthDevToken; auth <= AuthPublicKey; auth++ {
		for bind := BindACLApp; bind <= BindCapability; bind++ {
			for set := 0; set < 1<<3; set++ {
				var forms []UnbindForm
				for f := UnbindDevIDUserToken; f <= UnbindReplaceByBind; f++ {
					if set>>(f-1)&1 != 0 {
						forms = append(forms, f)
					}
				}
				for flags := 0; flags < 1<<14; flags++ {
					on := func(i int) bool { return flags>>i&1 != 0 }
					d := DesignSpec{Name: "lattice", DeviceAuth: auth, Binding: bind, UnbindForms: forms,
						ReplaceOnBind: on(0), PostBindingToken: on(1), CheckBoundUserOnBind: on(2),
						CheckBoundUserOnUnbind: on(3), SourceIPCheck: on(4), BindButtonWindow: on(5),
						OnlineBeforeBind: on(6), SessionTiedBinding: on(7), DataRequiresSession: on(8),
						ResetUnbindsOnSetup: on(9), FirmwareOpaque: on(10), DelegationScopeAttenuation: on(11),
						DelegationCascadeRevoke: on(12), DelegationCheckAtUse: on(13)}
					if d.Validate() == nil && !yield(d) {
						return
					}
				}
			}
		}
	}
}
