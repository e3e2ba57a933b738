package testbed

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

// liveLattice calls fn on the designs of the live lattice — the delegation
// flags (only A6 reads them) and FirmwareOpaque (it changes only what is
// reported) unset, 36 864 designs — with whether the owner can set the
// design up, and returns how many designs there are and how many of them
// cannot be set up. The designs whose owner cannot set them up are exactly
// those where the app binds before the device registers and the
// registration then drops the fresh binding: a session-tied cloud, or a
// setup reset whose Unbind:DevId the cloud accepts. Under the race
// detector fn sees a seeded tenth.
func liveLattice(fn func(d core.DesignSpec, buildable bool)) (designs, unbuildable int) {
	rng := rand.New(rand.NewSource(42))
	core.EachDesign(func(d core.DesignSpec) bool {
		if d.DelegationScopeAttenuation || d.DelegationCascadeRevoke || d.DelegationCheckAtUse || d.FirmwareOpaque {
			return true
		}
		designs++
		setup := d.Setup()
		dropsOwnBinding := setup.Binder == core.SenderApp && !setup.RegisterFirst &&
			(d.SessionTiedBinding || setup.Reset && d.SupportsUnbind(core.UnbindDevIDAlone))
		if dropsOwnBinding {
			unbuildable++
		}
		if !raceEnabled || rng.Intn(10) == 0 {
			fn(d, !dropsOwnBinding)
		}
		return true
	})
	return designs, unbuildable
}

// TestLiveLattice runs every Table II variant live on every design of the
// live lattice and holds each cell to the analyzer. On a design whose
// owner cannot set it up every variant, the setup-window one included,
// fails with the rig's error rather than reporting a verdict — all but
// A2, whose setup runs after the squatter's bind, so its failure is
// counted as the attack's. The whole sweep takes about 3 s without the
// race detector.
func TestLiveLattice(t *testing.T) {
	tb := new(Testbed)
	ran := 0
	designs, unbuildable := liveLattice(func(d core.DesignSpec, buildable bool) {
		ran++
		if !buildable {
			for _, v := range core.AllAttackVariants() {
				if v == core.VariantA2 {
					continue
				}
				if r, err := tb.evaluate(d, v); err == nil || !strings.Contains(err.Error(), `setup ended in online bound to ""`) {
					t.Fatalf("%+v: setup drops the owner's own binding, want %v refused, got %v (%s)", d, v, err, r.Detail)
				}
			}
			return
		}
		results, err := tb.evaluateAll(d)
		if err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		for i, f := range analysis.PredictAll(d) {
			if r := results[i]; r.Outcome != f.Outcome {
				t.Fatalf("%+v: %v live %v (%s), analyzer %v (%s)", d, f.Variant, r.Outcome, r.Detail, f.Outcome, f.Reason)
			}
		}
	})
	if designs != 36864 || unbuildable != 1440 {
		t.Errorf("%d designs, %d of them unbuildable; want 36 864 and 1 440", designs, unbuildable)
	}
	t.Logf("%d designs run live", ran)
}

// replay stages a violated checker result's counterexample on tb, reset
// for d, exactly as the checker wrote it, and reports whether the goal's
// live probe fires: a steady-state property behind the victim's parked
// secret in the steady control state, victim-can-bind in the pre-setup
// scenario, whose own setup is the counterexample's trailing victim-setup.
func replay(tb *Testbed, d core.DesignSpec, r modelcheck.Result) (bool, error) {
	if err := tb.Reset(d); err != nil {
		return false, err
	}
	sc, moves := ScenarioSteadyControl, append([]core.Move{core.MoveParkSecret}, r.Counterexample...)
	if r.Property == core.GoalOccupy {
		sc, moves = ScenarioPreSetup, r.Counterexample
	}
	_, _, setupErr, err := tb.Stage(sc, moves, true)
	if err != nil {
		return false, err
	}
	return tb.Reached(r.Property, setupErr)
}

// TestCounterexamplesReplayLive feeds every counterexample the model
// checker finds straight to the live rig — no name map, the moves are
// core's — and requires the violated property's goal to be reached. On
// the vendors and the reference designs every one lands. On the buildable
// live lattice every one lands but exactly 18: no-hijack via
// [forge-register forge-bind device-reregisters] on session-tied,
// data-session designs with DevId auth (6 with an app-sent bind, 12 with
// a device-sent one). There the model's re-registration is a resume that
// keeps the adversary's binding, while the live device's is a fresh
// registration, which the session-tied cloud takes for a reset and
// answers by revoking that binding.
func TestCounterexamplesReplayLive(t *testing.T) {
	tb := new(Testbed)
	replayAll := func(d core.DesignSpec, miss func(modelcheck.Result)) (replayed int) {
		results, err := modelcheck.Check(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Holds {
				continue
			}
			replayed++
			landed, err := replay(tb, d, r)
			if err != nil {
				t.Fatalf("%+v: %v via %v: %v", d, r.Property, r.Counterexample, err)
			}
			if !landed {
				miss(r)
			}
		}
		return replayed
	}

	profiles := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	replayed := 0
	for _, p := range profiles {
		replayed += replayAll(p.Design, func(r modelcheck.Result) {
			t.Errorf("%s: %v via %v did not land live", p.Design.Name, r.Property, r.Counterexample)
		})
	}
	if replayed != 19 {
		t.Errorf("%d counterexamples on the vendors and references, want 19", replayed)
	}

	resumeChain := []core.Move{core.MoveForgeRegister, core.MoveForgeBind, core.MoveDeviceReregisters}
	var appSent, deviceSent int
	replayed = 0
	liveLattice(func(d core.DesignSpec, buildable bool) {
		if !buildable {
			return
		}
		replayed += replayAll(d, func(r modelcheck.Result) {
			if r.Property != core.GoalHijack || !slices.Equal(r.Counterexample, resumeChain) ||
				!d.SessionTiedBinding || !d.DataRequiresSession || d.EffectiveAuth() != core.AuthDevID {
				t.Errorf("%+v: %v via %v did not land live", d, r.Property, r.Counterexample)
				return
			}
			if d.Setup().Binder == core.SenderApp {
				appSent++
			} else {
				deviceSent++
			}
		})
	})
	t.Logf("%d lattice counterexamples replayed; %d app-sent and %d device-sent resume chains missed", replayed, appSent, deviceSent)
	if !raceEnabled && (replayed != 37620 || appSent != 6 || deviceSent != 12) {
		t.Errorf("%d counterexamples, %d + %d resume chains missed; want 37 620 and 6 + 12", replayed, appSent, deviceSent)
	}
}
