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

// EvaluateAll runs every Table II variant against the design on one
// testbed and classifies each outcome exactly as the paper does: ✓ when
// the attack demonstrably lands, ✗ when it is blocked, O when the
// adversary lacks the device-protocol knowledge to even try. The reset and
// the victim's setup run once, and each later variant starts from the
// world they left, rewound in place (Stage).
func EvaluateAll(design core.DesignSpec, opts ...Option) ([]Result, error) {
	return new(Testbed).evaluateAll(design, opts...)
}

// evaluateAll is EvaluateAll on this testbed.
func (tb *Testbed) evaluateAll(design core.DesignSpec, opts ...Option) ([]Result, error) {
	return tb.evaluateInto(nil, design, opts...)
}

// evaluateInto is evaluateAll appending the results to results, which has
// room for every variant, or is nil for a slice of their own.
func (tb *Testbed) evaluateInto(results []Result, design core.DesignSpec, opts ...Option) ([]Result, error) {
	variants := core.AllAttackVariants()
	if results == nil {
		results = make([]Result, 0, len(variants))
	}
	for _, v := range variants {
		r, err := tb.evaluate(design, v, opts...)
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
	return new(Testbed).evaluateVendor(p, rowRoom{})
}

// rowRoom is the memory one vendor's row is cut from: room for each
// variant's Result, and cells for the row's A3 and A4 lists. The zero
// rowRoom has none, and the row gets slices of its own.
type rowRoom struct {
	results []Result
	cells   []core.AttackVariant
}

// evaluateVendor is EvaluateVendor on this testbed, its row in room.
func (tb *Testbed) evaluateVendor(p vendors.Profile, room rowRoom) (VendorResult, error) {
	results, err := tb.evaluateInto(room.results, p.Design)
	if err != nil {
		return VendorResult{}, fmt.Errorf("testbed: vendor %s: %w", p.Vendor, err)
	}
	if room.cells == nil {
		room.cells = make([]core.AttackVariant, len(results))
	}
	return VendorResult{Profile: p, Results: results, Row: collapseRow(results, room.cells)}, nil
}

// EvaluateVendors runs the full attack suite against each profile
// concurrently and returns the rows in the input order — the parallel
// Table III regeneration. Each worker owns one testbed, with its
// checkpoints, for the sweep (rigs) and resets it for every cell it runs,
// so the workers share no state; results are
// identical to a sequential sweep. The first error aborts the sweep — no
// profile is started once one has failed — and the error of the
// lowest-index failing profile is returned, as a sequential sweep would.
func EvaluateVendors(profiles []vendors.Profile) ([]VendorResult, error) {
	return evaluateEach(profiles, (*Testbed).evaluateVendor, new(atomic.Bool))
}

// rigs keeps the sweep workers' testbeds from one sweep to the next, with
// their memory and checkpoints: Stage resets or rewinds a rig for every
// cell, so what a rig ran before changes no result.
var rigs = sync.Pool{New: func() any { return new(Testbed) }}

// evaluateEach is EvaluateVendors over any per-profile evaluation, with
// the sweep's failure flag passed in: the abort tests count calls through
// it and hold evaluations until the flag shows a failure recorded.
//
// Every row is cut from two arrays the sweep makes once (rowRoom), each
// vendor's part a slice capped at its end, so a caller appending to one
// row's Results or A3/A4 list copies it rather than write a neighbour's.
func evaluateEach(profiles []vendors.Profile, eval func(*Testbed, vendors.Profile, rowRoom) (VendorResult, error), failed *atomic.Bool) ([]VendorResult, error) {
	out := make([]VendorResult, len(profiles))
	errs := make([]error, len(profiles))
	nv := len(core.AllAttackVariants())
	results := make([]Result, len(profiles)*nv)
	cells := make([]core.AttackVariant, len(profiles)*nv)
	var next atomic.Int64
	// Indices are claimed in order, so every profile below a failing one
	// was claimed before it and runs to its end: the lowest-index error
	// recorded is the lowest-index error there is.
	work := func() {
		tb := rigs.Get().(*Testbed) // this worker's own until it is put back
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(profiles) {
				break
			}
			lo, hi := i*nv, (i+1)*nv
			room := rowRoom{results: results[lo:lo:hi], cells: cells[lo:hi:hi]}
			if out[i], errs[i] = eval(tb, profiles[i], room); errs[i] != nil {
				failed.Store(true)
			}
		}
		rigs.Put(tb)
	}
	// The caller is one of the workers: its stack has grown to a cell's
	// depth before, where a fresh goroutine's would grow again.
	if helpers := min(runtime.GOMAXPROCS(0), len(profiles)) - 1; helpers <= 0 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(helpers)
		for range helpers {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
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
	return collapseRow(results, make([]core.AttackVariant, len(results)))
}

// collapseRow is CollapseRow with the A3 and A4 lists cut from cells,
// which has room for every result: each list is a capped slice of it, nil
// when no variant of its class succeeded.
func collapseRow(results []Result, cells []core.AttackVariant) vendors.PaperRow {
	var row vendors.PaperRow
	for _, r := range results {
		switch r.Variant {
		case core.VariantA1:
			row.A1 = r.Outcome
		case core.VariantA2:
			row.A2 = r.Outcome
		}
	}
	row.A3 = succeeded(results, core.A3DeviceUnbinding, cells)
	row.A4 = succeeded(results, core.A4DeviceHijacking, cells[len(row.A3):])
	return row
}

// succeeded lists the variants of class among results that succeeded, in
// cells' memory, capped at its length; nil when none did.
func succeeded(results []Result, class core.AttackClass, cells []core.AttackVariant) []core.AttackVariant {
	n := 0
	for _, r := range results {
		if r.Outcome.Succeeded() && r.Variant.Class() == class {
			cells[n] = r.Variant
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return cells[:n:n]
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

// procedure is the rig's own part of one Table II row; the rest — where
// the row is launched, its moves and the goals whose live probes (Reached)
// observe its consequence once every move went through — is core's
// tableII, which the model checker answers too.
type procedure struct {
	// won and lost are the Detail of a ✓ and of a ✗ whose messages were
	// all accepted.
	won, lost string
	// moves, when set, replaces the row's moves with what the rig runs.
	moves []core.Move
}

// procedures is indexed by variant.
var procedures = [...]procedure{
	core.VariantA1: {
		"fake reading visible to the victim; victim's schedule exfiltrated",
		"the forged status did not both inject a reading the still-bound victim sees and exfiltrate the schedule",
		// The victim parks private data for the forged status to steal.
		append([]core.Move{core.MoveParkSecret}, core.VariantA1.Moves()...),
	},
	core.VariantA2:   {"the squatting binding keeps the victim from controlling the device", "the victim's setup displaced the squatting binding", nil},
	core.VariantA3x1: {"victim's binding revoked; device disconnected from the user", "binding survived the forged unbind", nil},
	core.VariantA3x2: {"victim's binding revoked; device disconnected from the user", "binding survived the forged unbind", nil},
	core.VariantA3x3: {
		"binding replaced; the attacker gains no control, leaving pure disconnection",
		"binding survived the forged bind, or the replacement granted control (the episode classifies as A4-1)", nil,
	},
	core.VariantA3x4: {"cloud adopted the forged registration as a reset and revoked the binding", "binding survived the forged registration", nil},
	core.VariantA4x1: {"existing binding manipulated without checks; attacker commands the device", "forged bind did not yield control of the real device", nil},
	core.VariantA4x2: {"bound first in the setup window", "window bind did not yield durable control", nil},
	core.VariantA4x3: {"unbind opened the online state; the follow-up bind hijacked the device", "the chained bind did not yield control of the real device", nil},
}

// scenarios launches each targeted state's rows, indexed by the state.
var scenarios = [...]Scenario{
	core.StateInitial: ScenarioPreSetup,
	core.StateOnline:  ScenarioSetupWindow,
	core.StateControl: ScenarioSteadyControl,
}

// landed probes the row's consequence on this rig: every goal reached,
// probed in order up to the first that is not, and then the row's Unless
// (if set) not.
func (tb *Testbed) landed(v core.AttackVariant, setupErr error) (bool, error) {
	for _, g := range v.Goals() {
		if ok, err := tb.Reached(g, setupErr); err != nil || !ok {
			return false, err
		}
	}
	if v.Unless() == 0 {
		return true, nil
	}
	ok, err := tb.Reached(v.Unless(), setupErr)
	return !ok, err
}

// evaluate is Evaluate on this testbed: Stage resets it for the design,
// launches the variant's procedure, and what happened is classified in
// Table III vocabulary.
func (tb *Testbed) evaluate(design core.DesignSpec, v core.AttackVariant, opts ...Option) (Result, error) {
	if v < 1 || int(v) >= len(procedures) {
		return Result{}, fmt.Errorf("testbed: unknown attack variant %v", v)
	}
	p := &procedures[v]
	moves := p.moves
	if moves == nil {
		moves = v.Moves()
	}
	res := Result{Variant: v}
	launched, rejected, setupErr, err := tb.Stage(design, scenarios[v.LaunchState()], moves, true, opts...)
	switch {
	case err != nil:
		return Result{}, err
	case !launched:
		// Only the setup-window scenario can decline to launch; its ✗
		// needs a setup that ended with the victim in control.
		if setupErr != nil {
			return Result{}, fmt.Errorf("testbed: setup failed without attack: %w", setupErr)
		}
		if err := tb.victimInControl(); err != nil {
			return Result{}, err
		}
		res.Outcome = core.OutcomeFailed
		res.Detail = "setup exposes no online-unbound window"
		return res, nil
	case rejected != nil:
		res.Outcome = classifyForgeErr(rejected)
		res.Detail = tb.text(fmt.Appendf(tb.buf[:0], "forged message rejected: %v", rejected))
		return res, nil
	}
	landed, err := tb.landed(v, setupErr)
	switch {
	case err != nil:
		return Result{}, err
	case !landed:
		res.Outcome, res.Detail = core.OutcomeFailed, p.lost
	case setupErr != nil:
		res.Outcome, res.Detail = core.OutcomeSucceeded, tb.text(fmt.Appendf(append(tb.buf[:0], p.won...), " (victim setup: %v)", setupErr))
	default:
		res.Outcome, res.Detail = core.OutcomeSucceeded, p.won
	}
	return res, nil
}

// maxTexts bounds the Details a rig keeps for reuse (text); a lattice
// sweep's refusals quote device IDs, so the set is not the vendors' few.
const maxTexts = 256

// text returns the Detail this run just formatted into b, which becomes
// the rig's buffer: a string this rig made before with the same bytes, or
// else a new one, kept for the next cell that formats them again.
func (tb *Testbed) text(b []byte) string {
	tb.buf = b
	if s, ok := tb.texts[string(b)]; ok {
		return s
	}
	if tb.texts == nil || len(tb.texts) == maxTexts {
		tb.texts = make(map[string]string)
	}
	s := string(b)
	tb.texts[s] = s
	return s
}
