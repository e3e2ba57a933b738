package testbed

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/vendors"
)

// refusalTargets are the sentinels a refusal may wrap, for errors.Is.
var refusalTargets = []error{
	protocol.ErrAuthFailed, protocol.ErrUnknownDevice, protocol.ErrAlreadyBound,
	protocol.ErrNotBound, protocol.ErrNotPermitted, protocol.ErrUnsupported,
	protocol.ErrOutsideWindow, protocol.ErrDeviceOffline, protocol.ErrBadRequest,
	protocol.ErrUserExists, attacker.ErrForgeryUnavailable,
}

// TestCachedRefusalsMatchFresh: the refusals a rig's agents build once
// and hand out again — every attacker.Refusal step, the app's bind
// refusal and the rig's setup failure — read and match as ones built
// fresh do. One rig stages every cell of the ten vendors and the three
// references twice, so the second run takes its refusals from caches that
// by then hold other designs' refusals too; a fresh testbed stages each
// cell once. The two sides must agree level by level down the Unwrap
// chain (dynamic type, Error, %v, %s, %q), under errors.Is for every
// sentinel and under errors.As to a Refusal and a setupError; and one
// cached error must never stand for two different fresh ones, as it
// would from a cache keyed by too little.
func TestCachedRefusalsMatchFresh(t *testing.T) {
	designs := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	warm := new(Testbed)
	stands := make(map[error]string) // a cached error → the fresh chain it stood for
	reused := make(map[string]int)   // what was handed out again: a Refusal's step, or the type
	seen := make(map[string]bool)    // what was compared at all
	for _, p := range designs {
		for _, v := range core.AllAttackVariants() {
			moves := procedures[v].moves
			if moves == nil {
				moves = v.Moves()
			}
			// The cell's refusals, then the attacker's control of the
			// device, the victim's bind of it again and their setup of it
			// again, and a forged bind of a device the cloud does not
			// know (on a capability design, a refused bind token).
			stage := func(tb *Testbed) [6]error {
				_, rejected, setupErr, err := tb.Stage(p.Design, scenarios[v.LaunchState()], moves, true)
				if err != nil {
					t.Fatalf("%s × %v: %v", p.Vendor, v, err)
				}
				control := tb.atk.Control(tb.deviceID, protocol.Command{ID: "cached-refusal", Name: "probe"})
				_, rebind := tb.victim.Bind(tb.deviceID)
				setUpAgain := tb.SetupVictim()
				_, unknown := tb.atk.ForgeBind("no-such-device")
				return [6]error{rejected, setupErr, control, rebind, setUpAgain, unknown}
			}
			first, second, fresh := stage(warm), stage(warm), stage(new(Testbed))
			for i, what := range [...]string{"rejected move", "setup", "control", "rebind", "setup again", "unknown device"} {
				name := fmt.Sprintf("%s × %v, %s", p.Vendor, v, what)
				if diff := errorDiff(second[i], fresh[i]); diff != "" {
					t.Errorf("%s: cached %q, fresh %q: %s", name, second[i], fresh[i], diff)
					continue
				}
				for c, f, again := second[i], fresh[i], first[i]; c != nil; c, f, again = errors.Unwrap(c), errors.Unwrap(f), errors.Unwrap(again) {
					if reflect.TypeOf(c).Kind() != reflect.Pointer {
						continue
					}
					kind := fmt.Sprintf("%T", c)
					if r, ok := c.(*attacker.Refusal); ok {
						kind = r.Step
					}
					seen[kind] = true
					if c == again && c != f {
						reused[kind]++
					}
					chain := chainText(f)
					if prev, ok := stands[c]; ok && prev != chain {
						t.Errorf("%s: one cached error %p stands for %s and for %s", name, c, prev, chain)
					}
					stands[c] = chain
				}
			}
		}
	}
	t.Logf("handed out again from a cache: %v; %d distinct errors", reused, len(stands))
	for _, kind := range []string{"forge status", "forge bind", "forge unbind type1", "forge unbind type2", "control", "*app.bindError", "*testbed.setupError"} {
		if reused[kind] == 0 {
			t.Errorf("no %s was handed out again: the test does not exercise its cache", kind)
		}
	}
	// A refused bind token quotes the device ID, so each is a new error
	// and is never handed out again; it is compared all the same.
	if !seen["bind token"] {
		t.Error("no bind-token refusal was compared")
	}
}

// errorDiff says how cached differs from fresh, or returns "".
func errorDiff(cached, fresh error) string {
	for c, f := cached, fresh; c != nil || f != nil; c, f = errors.Unwrap(c), errors.Unwrap(f) {
		if (c == nil) != (f == nil) {
			return "the chains differ in length"
		}
		if ct, ft := fmt.Sprintf("%T", c), fmt.Sprintf("%T", f); ct != ft {
			return fmt.Sprintf("a level is a %s, fresh a %s", ct, ft)
		}
		if c.Error() != f.Error() {
			return fmt.Sprintf("a level reads %q, fresh %q", c.Error(), f.Error())
		}
		for _, verb := range []string{"%v", "%s", "%q"} {
			if cs, fs := fmt.Sprintf(verb, c), fmt.Sprintf(verb, f); cs != fs {
				return fmt.Sprintf("%s formats %q, fresh %q", verb, cs, fs)
			}
		}
	}
	for _, target := range refusalTargets {
		if errors.Is(cached, target) != errors.Is(fresh, target) {
			return fmt.Sprintf("errors.Is(%v) differs", target)
		}
	}
	var cr, fr *attacker.Refusal
	if errors.As(cached, &cr) != errors.As(fresh, &fr) || cr != nil && (cr.Step != fr.Step || cr.Err.Error() != fr.Err.Error()) {
		return "errors.As to a Refusal differs"
	}
	var cs, fs *setupError
	if errors.As(cached, &cs) != errors.As(fresh, &fs) || cs != nil && cs.err.Error() != fs.err.Error() {
		return "errors.As to a setupError differs"
	}
	return ""
}

// chainText names an error chain: each level's type and text.
func chainText(err error) string {
	s := ""
	for ; err != nil; err = errors.Unwrap(err) {
		s += fmt.Sprintf("[%T %s]", err, err)
	}
	return s
}
