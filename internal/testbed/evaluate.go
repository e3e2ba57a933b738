package testbed

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// Result is the outcome of one attack experiment.
type Result struct {
	// Variant is the attack procedure that ran.
	Variant core.AttackVariant
	// Outcome is the Table III classification.
	Outcome core.Outcome
	// Detail explains what was observed.
	Detail string
}

// Evaluate runs one attack variant against a fresh testbed for the design
// and classifies the outcome exactly as the paper does: ✓ when the attack
// demonstrably lands, ✗ when it is blocked, O when the adversary lacks the
// device-protocol knowledge to even try.
func Evaluate(design core.DesignSpec, v core.AttackVariant, opts ...Option) (Result, error) {
	tb, err := New(design, opts...)
	if err != nil {
		return Result{}, err
	}
	return tb.run(v)
}

// EvaluateAll runs every Table II variant against the design, each on a
// fresh testbed.
func EvaluateAll(design core.DesignSpec, opts ...Option) ([]Result, error) {
	variants := core.AllAttackVariants()
	results := make([]Result, 0, len(variants))
	for _, v := range variants {
		r, err := Evaluate(design, v, opts...)
		if err != nil {
			return nil, fmt.Errorf("testbed: %v: %w", v, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// VendorResult is one vendor's measured Table III row.
type VendorResult struct {
	// Profile is the vendor under test.
	Profile vendors.Profile
	// Results holds every variant's outcome in Table II order.
	Results []Result
	// Row is the collapsed Table III row.
	Row vendors.PaperRow
}

// EvaluateVendor runs the full attack suite against a vendor profile and
// collapses the outcomes into a Table III row.
func EvaluateVendor(p vendors.Profile) (VendorResult, error) {
	results, err := EvaluateAll(p.Design)
	if err != nil {
		return VendorResult{}, fmt.Errorf("testbed: vendor %s: %w", p.Vendor, err)
	}
	return VendorResult{Profile: p, Results: results, Row: CollapseRow(results)}, nil
}

// EvaluateVendors runs the full attack suite against each profile
// concurrently and returns the rows in the input order — the parallel
// Table III regeneration. Every profile gets fresh testbeds (one per
// variant, exactly as EvaluateVendor builds them), so the runs share no
// state; results are identical to a sequential sweep. The first error
// aborts the sweep — no profile is started once one has failed — and the
// error of the lowest-index failing profile is returned, as a sequential
// sweep would.
func EvaluateVendors(profiles []vendors.Profile) ([]VendorResult, error) {
	return evaluateEach(profiles, EvaluateVendor)
}

// evaluateEach is EvaluateVendors over any per-profile evaluation; the
// abort tests count calls through it.
func evaluateEach(profiles []vendors.Profile, eval func(vendors.Profile) (VendorResult, error)) ([]VendorResult, error) {
	out := make([]VendorResult, len(profiles))
	errs := make([]error, len(profiles))
	var next atomic.Int64
	var failed atomic.Bool
	// Indices are claimed in order, so every profile below a failing one
	// was claimed before it and runs to its end: the lowest-index error
	// recorded is the lowest-index error there is.
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(profiles) {
				return
			}
			if out[i], errs[i] = eval(profiles[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(profiles) {
		workers = len(profiles)
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CollapseRow folds per-variant results into the Table III cell format:
// the A1 and A2 cells carry the single variant's outcome; the A3 and A4
// cells list the succeeded variants.
func CollapseRow(results []Result) vendors.PaperRow {
	var row vendors.PaperRow
	for _, r := range results {
		switch r.Variant {
		case core.VariantA1:
			row.A1 = r.Outcome
		case core.VariantA2:
			row.A2 = r.Outcome
		default:
			if !r.Outcome.Succeeded() {
				continue
			}
			switch r.Variant.Class() {
			case core.A3DeviceUnbinding:
				row.A3 = append(row.A3, r.Variant)
			case core.A4DeviceHijacking:
				row.A4 = append(row.A4, r.Variant)
			}
		}
	}
	return row
}

// MatchesPaper compares a measured row with the paper's published row.
func MatchesPaper(measured, published vendors.PaperRow) bool {
	if measured.A1 != published.A1 || measured.A2 != published.A2 {
		return false
	}
	return sameVariants(measured.A3, published.A3) && sameVariants(measured.A4, published.A4)
}

// sameVariants compares two cells as sets. A cell lists each variant at
// most once, so a list with a repeat is no cell and equals nothing: the
// bitmask of each side must have as many bits as the side has entries.
func sameVariants(a, b []core.AttackVariant) bool {
	set := variantMask(a)
	return set == variantMask(b) && len(a) == bits.OnesCount64(set) && len(b) == len(a)
}

// variantMask folds variants (Table II numbers them 1 to 9) into a
// bitmask; one that does not fit sets no bit, so its cell equals nothing.
func variantMask(vs []core.AttackVariant) uint64 {
	var set uint64
	for _, v := range vs {
		set |= 1 << uint(v)
	}
	return set
}

// ---- attack procedures ---------------------------------------------------

// procedure is one Table II row made executable: the victim situation the
// variant targets, the forged messages in order, and how its consequence
// is observed once every message went through.
type procedure struct {
	scenario Scenario
	steps    []Step
	// landed probes for the consequence. setupErr is the outcome of a
	// victim setup that ran after or around the steps (Stage). Read-only
	// probes come before a control probe, which pumps a device heartbeat.
	landed func(tb *Testbed, setupErr error) (bool, error)
	// won and lost are the Detail of a ✓ and of a ✗ whose messages were
	// all accepted.
	won, lost string
}

// procedures is the live counterpart of core's tableII, indexed by
// variant: Evaluate launches a row through Stage instead of carrying a
// hand-written procedure per variant.
var procedures = [...]procedure{
	core.VariantA1: {
		// Fake readings go up, and the user's pending data comes back down.
		ScenarioSteadyControl, []Step{StepParkSecret, StepForgeDataHeartbeat}, injectedAndStolen,
		"fake reading visible to the victim; victim's schedule exfiltrated",
		"the forged status did not both inject a reading the still-bound victim sees and exfiltrate the schedule",
	},
	core.VariantA2: {
		// Occupy the binding before the victim's first setup.
		ScenarioPreSetup, []Step{StepForgeBind}, setupDenied,
		"the squatting binding keeps the victim from controlling the device",
		"the victim's setup displaced the squatting binding",
	},
	core.VariantA3x1: {
		ScenarioSteadyControl, []Step{StepForgeUnbindDevID}, victimUnbound,
		"victim's binding revoked; device disconnected from the user",
		"binding survived the forged unbind",
	},
	core.VariantA3x2: {
		ScenarioSteadyControl, []Step{StepForgeUnbindUserToken}, victimUnbound,
		"victim's binding revoked; device disconnected from the user",
		"binding survived the forged unbind",
	},
	core.VariantA3x3: {
		// Succeeds only when the replacement does NOT grant control;
		// otherwise the episode classifies as A4-1.
		ScenarioSteadyControl, []Step{StepForgeBind}, unboundWithoutTakeover,
		"binding replaced; the attacker gains no control, leaving pure disconnection",
		"binding survived the forged bind, or the replacement granted control (the episode classifies as A4-1)",
	},
	core.VariantA3x4: {
		ScenarioSteadyControl, []Step{StepForgeRegister}, victimUnbound,
		"cloud adopted the forged registration as a reset and revoked the binding",
		"binding survived the forged registration",
	},
	core.VariantA4x1: {
		ScenarioSteadyControl, []Step{StepForgeBind}, attackerControls,
		"existing binding manipulated without checks; attacker commands the device",
		"forged bind did not yield control of the real device",
	},
	core.VariantA4x2: {
		ScenarioSetupWindow, []Step{StepForgeBind}, attackerControls,
		"bound first in the setup window",
		"window bind did not yield durable control",
	},
	core.VariantA4x3: {
		ScenarioSteadyControl, []Step{StepForgeAnyUnbind, StepForgeBind}, attackerControls,
		"unbind opened the online state; the follow-up bind hijacked the device",
		"the chained bind did not yield control of the real device",
	},
}

func injectedAndStolen(tb *Testbed, _ error) (bool, error) {
	bound, err := tb.VictimBound()
	if err != nil || !bound {
		return false, err
	}
	injected, err := tb.VictimSeesInjectedReading()
	if err != nil {
		return false, err
	}
	return injected && len(tb.atk.StolenData()) > 0, nil
}

func setupDenied(tb *Testbed, setupErr error) (bool, error) {
	return setupErr != nil || !tb.VictimHasControl(), nil
}

func victimUnbound(tb *Testbed, _ error) (bool, error) {
	bound, err := tb.VictimBound()
	return !bound, err
}

func unboundWithoutTakeover(tb *Testbed, _ error) (bool, error) {
	bound, err := tb.VictimBound()
	if err != nil || bound {
		return false, err
	}
	return !tb.AttackerHasControl(), nil
}

func attackerControls(tb *Testbed, _ error) (bool, error) {
	return tb.AttackerHasControl(), nil
}

// run launches the variant's procedure on this (fresh) testbed and
// classifies what happened in Table III vocabulary.
func (tb *Testbed) run(v core.AttackVariant) (Result, error) {
	if v < 1 || int(v) >= len(procedures) {
		return Result{}, fmt.Errorf("testbed: unknown attack variant %v", v)
	}
	p := &procedures[v]
	res := Result{Variant: v}
	launched, rejected, setupErr, err := tb.Stage(p.scenario, p.steps, true)
	switch {
	case err != nil:
		return Result{}, err
	case !launched:
		// Only the setup-window scenario can decline to launch.
		if setupErr != nil {
			return Result{}, fmt.Errorf("testbed: setup failed without attack: %w", setupErr)
		}
		res.Outcome = core.OutcomeFailed
		res.Detail = "setup exposes no online-unbound window"
		return res, nil
	case rejected != nil:
		res.Outcome = classifyForgeErr(rejected)
		res.Detail = fmt.Sprintf("forged message rejected: %v", rejected)
		return res, nil
	}
	landed, err := p.landed(tb, setupErr)
	switch {
	case err != nil:
		return Result{}, err
	case !landed:
		res.Outcome, res.Detail = core.OutcomeFailed, p.lost
	case setupErr != nil:
		res.Outcome, res.Detail = core.OutcomeSucceeded, fmt.Sprintf("%s (victim setup: %v)", p.won, setupErr)
	default:
		res.Outcome, res.Detail = core.OutcomeSucceeded, p.won
	}
	return res, nil
}
