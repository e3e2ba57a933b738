// Package analysis is the attack-surface analyzer: given a remote-binding
// design description, it predicts — from policy rules alone, without
// running any emulation — which of the paper's attacks (Table II) succeed
// against it, and derives the taxonomy's state-transition structure from
// the device-shadow state machine.
//
// The predictions are intentionally implemented independently of the cloud
// emulation in the cloud package. The testbed package launches the same
// attacks against live emulated clouds; the test suite checks that the two
// routes agree on every vendor profile and on randomly generated designs,
// which validates both the analyzer's rules and the emulation's mechanics.
package analysis

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/iotbind/iotbind/internal/core"
)

// Finding is one predicted attack outcome with its reasoning.
type Finding struct {
	// Variant is the attack procedure.
	Variant core.AttackVariant
	// Outcome is the predicted result in Table III vocabulary.
	Outcome core.Outcome
	// Reason explains the prediction in one sentence.
	Reason string
}

// Predict evaluates one attack variant against a design.
func Predict(d core.DesignSpec, v core.AttackVariant) Finding {
	switch v {
	case core.VariantA1:
		return predictA1(d)
	case core.VariantA2:
		return predictA2(d)
	case core.VariantA3x1:
		return predictA3x1(d)
	case core.VariantA3x2:
		return predictA3x2(d)
	case core.VariantA3x3:
		return predictA3x3(d)
	case core.VariantA3x4:
		return predictA3x4(d)
	case core.VariantA4x1:
		return predictA4x1(d)
	case core.VariantA4x2:
		return predictA4x2(d)
	case core.VariantA4x3:
		return predictA4x3(d)
	default:
		return Finding{Variant: v, Outcome: core.OutcomeNotApplicable, Reason: "unknown variant"}
	}
}

// PredictAll evaluates every Table II variant against a design, in the
// table's order.
func PredictAll(d core.DesignSpec) []Finding {
	variants := core.AllAttackVariants()
	findings := make([]Finding, 0, len(variants))
	for _, v := range variants {
		findings = append(findings, Predict(d, v))
	}
	return findings
}

// PredictMany evaluates every Table II variant against each design
// concurrently, returning findings in the input order. The designs are
// independent — the prediction rules are pure functions of the spec — so
// a Table II/III regeneration over a design sweep scales with the
// available CPUs. Output is identical to calling PredictAll per design.
func PredictMany(designs []core.DesignSpec) [][]Finding {
	out := make([][]Finding, len(designs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(designs) {
		workers = len(designs)
	}
	if workers <= 1 {
		for i, d := range designs {
			out[i] = PredictAll(d)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(designs) {
					return
				}
				out[i] = PredictAll(designs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ---- shared predicates -------------------------------------------------

// canForgeDeviceMessages reports whether the adversary obtained the
// device-side message formats (firmware analysis succeeded).
func canForgeDeviceMessages(d core.DesignSpec) bool { return !d.FirmwareOpaque }

// deviceAuthForgeable reports whether a forged device message passes
// authentication with nothing but the device ID.
func deviceAuthForgeable(d core.DesignSpec) bool {
	return d.EffectiveAuth() == core.AuthDevID
}

// bindWindowBlocked reports whether bind-time co-location defences stop a
// remote bind forgery (the device #7 button window and source-IP check).
func bindWindowBlocked(d core.DesignSpec) bool {
	return d.BindButtonWindow || d.SourceIPCheck
}

// bindReplacePossible reports whether a bind message can displace an
// existing binding.
func bindReplacePossible(d core.DesignSpec) bool {
	return d.ReplaceOnBind || !d.CheckBoundUserOnBind
}

// attackerGainsControl reports whether an attacker whose forged binding
// was accepted can actually command the real device. Dynamic device tokens
// tie the device's session to the configuring account, so a foreign
// binding gets no control (Section V-E); a post-binding token cuts the
// stale device off instead of serving the hijacker.
func attackerGainsControl(d core.DesignSpec) bool {
	return d.EffectiveAuth() != core.AuthDevToken && !d.PostBindingToken
}

// bindForgeability classifies whether the adversary can emit an accepted-
// shape bind message at all: app-initiated ACL binds are plain API calls;
// device-initiated binds need the reverse-engineered device protocol;
// capability binds need the factory secret and are never forgeable.
type forgeability int

const (
	forgeable forgeability = iota + 1
	notForgeable
	unknownForgeable // device protocol resisted analysis: untestable
)

func bindForgeable(d core.DesignSpec) forgeability {
	switch d.Binding {
	case core.BindACLApp:
		return forgeable
	case core.BindACLDevice:
		if canForgeDeviceMessages(d) {
			return forgeable
		}
		return unknownForgeable
	case core.BindCapability:
		return notForgeable
	default:
		return notForgeable
	}
}

// remoteBindRefused decides the cases every bind-forging row but A2
// shares: a bind the adversary cannot craft, or one a co-location
// defence refuses from afar. It fills f and reports whether it did.
func remoteBindRefused(d core.DesignSpec, f *Finding) bool {
	switch {
	case bindForgeable(d) == notForgeable:
		f.Outcome, f.Reason = core.OutcomeFailed, "capability binding: a bind needs the factory-secret proof"
	case bindForgeable(d) == unknownForgeable:
		f.Outcome, f.Reason = core.OutcomeUnconfirmed, "device-initiated bind message could not be reconstructed"
	case bindWindowBlocked(d):
		f.Outcome, f.Reason = core.OutcomeFailed, "bind-time co-location defence rejects remote binds"
	default:
		return false
	}
	return true
}

// ---- per-variant rules ---------------------------------------------------

func predictA1(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA1}
	switch {
	case !canForgeDeviceMessages(d):
		f.Outcome = core.OutcomeUnconfirmed
		f.Reason = "device messages could not be reconstructed from the firmware"
	case !deviceAuthForgeable(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = fmt.Sprintf("forged status rejected: device authenticates with %v", d.EffectiveAuth())
	case d.PostBindingToken:
		f.Outcome = core.OutcomeFailed
		f.Reason = "device messages must carry the post-binding session token"
	case d.DataRequiresSession:
		f.Outcome = core.OutcomeFailed
		f.Reason = "data-bearing messages require the factory-secret session proof"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "static device ID authenticates forged status messages; data flows both ways"
	}
	return f
}

func predictA2(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA2}
	switch {
	case bindForgeable(d) == notForgeable:
		f.Outcome = core.OutcomeFailed
		f.Reason = "capability binding: a bind needs the factory-secret proof"
	case bindForgeable(d) == unknownForgeable:
		f.Outcome = core.OutcomeUnconfirmed
		f.Reason = "device-initiated bind message could not be reconstructed"
	case bindWindowBlocked(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "bind-time co-location defence (button window / source IP) rejects remote binds"
	case d.ReplaceOnBind || !d.CheckBoundUserOnBind:
		f.Outcome = core.OutcomeFailed
		f.Reason = "the user's own bind displaces the squatting binding, so no denial of service"
	case d.Setup().Reset && d.SupportsUnbind(core.UnbindDevIDAlone):
		f.Outcome = core.OutcomeFailed
		f.Reason = "normal setup resets the device, which revokes the squatting binding"
	case d.SessionTiedBinding && d.Setup().RegisterFirst:
		f.Outcome = core.OutcomeFailed
		f.Reason = "the victim device's own registration evicts the squatting binding during setup"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "first-come binding with a leaked device ID locks the legitimate user out"
	}
	return f
}

func predictA3x1(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA3x1}
	switch {
	// The adversary's knowledge gates the attempt itself: without the
	// device protocol there is nothing to send, whether or not the cloud
	// would accept the form.
	case !canForgeDeviceMessages(d):
		f.Outcome = core.OutcomeUnconfirmed
		f.Reason = "the device-sent unbind message could not be reconstructed"
	case !d.SupportsUnbind(core.UnbindDevIDAlone):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the cloud does not accept Unbind:DevId"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "Unbind:DevId carries no authorization at all"
	}
	return f
}

func predictA3x2(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA3x2}
	switch {
	case !d.SupportsUnbind(core.UnbindDevIDUserToken):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the cloud does not accept Unbind:(DevId, UserToken)"
	case d.CheckBoundUserOnUnbind:
		f.Outcome = core.OutcomeFailed
		f.Reason = "the cloud verifies the unbinding user is the bound user"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "any valid user token revokes any binding: the bound-user check is missing"
	}
	return f
}

func predictA3x3(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA3x3}
	switch {
	case remoteBindRefused(d, &f):
	case !bindReplacePossible(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the cloud rejects binds for devices bound to another user"
	case attackerGainsControl(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the replacement grants control, so the attack classifies as A4-1"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "the forged bind replaces the user's binding; tokens deny the attacker control, leaving pure disconnection"
	}
	return f
}

func predictA3x4(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA3x4}
	switch {
	case !canForgeDeviceMessages(d):
		f.Outcome = core.OutcomeUnconfirmed
		f.Reason = "device messages could not be reconstructed from the firmware"
	case !deviceAuthForgeable(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = fmt.Sprintf("forged status rejected: device authenticates with %v", d.EffectiveAuth())
	case !d.SessionTiedBinding:
		f.Outcome = core.OutcomeFailed
		f.Reason = "registrations do not disturb existing bindings on this cloud"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "a forged registration is treated as a device reset and revokes the binding"
	}
	return f
}

func predictA4x1(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA4x1}
	switch {
	case remoteBindRefused(d, &f):
	case !bindReplacePossible(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the cloud rejects binds for devices bound to another user"
	case !attackerGainsControl(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "token-based sessions deny the foreign binding any control"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "the cloud manipulates the existing binding without checks; the attacker takes over"
	}
	return f
}

func predictA4x2(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA4x2}
	switch {
	// The window exists only in setup sequences where the device
	// registers before the app's bind; a device-sent bind follows the
	// device's registration at once.
	case !d.Setup().OnlineUnbound():
		f.Outcome = core.OutcomeFailed
		f.Reason = "setup leaves no online-unbound window: the binding exists before the device connects"
	case remoteBindRefused(d, &f):
	case !attackerGainsControl(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "token-based sessions deny the foreign binding any control"
	case bindReplacePossible(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "the user's subsequent bind displaces the attacker, so the takeover does not hold"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "the attacker binds first during the setup window and controls the device"
	}
	return f
}

func predictA4x3(d core.DesignSpec) Finding {
	f := Finding{Variant: core.VariantA4x3}
	// Step 1 considers only the unbind forms the design exposes: the
	// Type 1 (app) form is observable from the vendor app, while the
	// Type 2 (device) form matters only where it exists and is
	// constructible.
	unbindStep := core.OutcomeFailed
	if d.SupportsUnbind(core.UnbindDevIDAlone) {
		if canForgeDeviceMessages(d) {
			unbindStep = core.OutcomeSucceeded
		} else {
			unbindStep = core.OutcomeUnconfirmed
		}
	}
	if d.SupportsUnbind(core.UnbindDevIDUserToken) && !d.CheckBoundUserOnUnbind {
		unbindStep = core.OutcomeSucceeded
	}
	switch {
	case unbindStep == core.OutcomeFailed:
		f.Outcome = core.OutcomeFailed
		f.Reason = "no unbind forgery is available to open the online-unbound state"
		return f
	case unbindStep == core.OutcomeUnconfirmed:
		f.Outcome = core.OutcomeUnconfirmed
		f.Reason = "the unbinding step could not be confirmed"
		return f
	}
	switch {
	case remoteBindRefused(d, &f):
	case !attackerGainsControl(d):
		f.Outcome = core.OutcomeFailed
		f.Reason = "token-based sessions deny the foreign binding any control"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "forged unbind opens the online state; a forged bind then hijacks the device"
	}
	return f
}
