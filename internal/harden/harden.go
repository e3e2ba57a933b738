// Package harden turns the paper's lessons (Section VII) into a repair
// engine: given a vulnerable remote-binding design, it searches the space
// of hardening steps — the concrete fixes the paper recommends — for a
// minimal set that closes every attack the analyzer predicts, verifying
// the result with the model checker.
package harden

import (
	"fmt"
	"sort"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
)

// Step is one hardening measure.
type Step int

// The hardening measures, each mapping to a lesson of Section VII.
const (
	// StepDynamicDeviceToken replaces static-ID device authentication
	// with dynamic tokens obtained through the user (lesson 1).
	StepDynamicDeviceToken Step = iota + 1
	// StepCapabilityBinding replaces ACL binding with capability tokens
	// that prove local ownership (lesson 2).
	StepCapabilityBinding
	// StepCheckBindOwner makes the cloud reject binds for devices bound
	// to another user, and stops replacing bindings blindly (lesson 2).
	StepCheckBindOwner
	// StepCheckUnbindOwner makes the cloud verify the unbinding user is
	// the bound user (lesson 3).
	StepCheckUnbindOwner
	// StepDropDeviceOnlyUnbind removes the authorization-free
	// Unbind:DevId form (lesson 3).
	StepDropDeviceOnlyUnbind
	// StepPostBindingToken adds the post-binding session token that cuts
	// forged bindings off from the real device (Section IV-B).
	StepPostBindingToken
)

// AllSteps lists the hardening measures.
func AllSteps() []Step {
	return []Step{
		StepDynamicDeviceToken,
		StepCapabilityBinding,
		StepCheckBindOwner,
		StepCheckUnbindOwner,
		StepDropDeviceOnlyUnbind,
		StepPostBindingToken,
	}
}

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s {
	case StepDynamicDeviceToken:
		return "use-dynamic-device-tokens"
	case StepCapabilityBinding:
		return "use-capability-binding"
	case StepCheckBindOwner:
		return "check-bound-user-on-bind"
	case StepCheckUnbindOwner:
		return "check-bound-user-on-unbind"
	case StepDropDeviceOnlyUnbind:
		return "drop-unbind-by-devid"
	case StepPostBindingToken:
		return "add-post-binding-token"
	default:
		return fmt.Sprintf("Step(%d)", int(s))
	}
}

// apply returns the design with the step applied; ok=false when the step
// does not apply (already in place).
func (s Step) apply(d core.DesignSpec) (core.DesignSpec, bool) {
	switch s {
	case StepDynamicDeviceToken:
		if d.EffectiveAuth() == core.AuthDevToken || d.EffectiveAuth() == core.AuthPublicKey {
			return d, false
		}
		d.DeviceAuth = core.AuthDevToken
		d.AssumedAuth = 0
		return d, true
	case StepCapabilityBinding:
		if d.Binding == core.BindCapability {
			return d, false
		}
		d.Binding = core.BindCapability
		// The post-binding token pairs only with app-initiated ACL
		// binding (Validate enforces it); the capability itself
		// supersedes it.
		d.PostBindingToken = false
		return d, true
	case StepCheckBindOwner:
		if d.CheckBoundUserOnBind && !d.ReplaceOnBind {
			return d, false
		}
		d.CheckBoundUserOnBind = true
		d.ReplaceOnBind = false
		// A Type 3 "replace is the unbind" design needs a real unbind
		// operation once replacement is gone.
		forms := d.UnbindForms[:0:0]
		for _, f := range d.UnbindForms {
			if f != core.UnbindReplaceByBind {
				forms = append(forms, f)
			}
		}
		if len(forms) == 0 {
			forms = []core.UnbindForm{core.UnbindDevIDUserToken}
		}
		d.UnbindForms = forms
		return d, true
	case StepCheckUnbindOwner:
		if d.CheckBoundUserOnUnbind || !d.SupportsUnbind(core.UnbindDevIDUserToken) {
			return d, false
		}
		d.CheckBoundUserOnUnbind = true
		return d, true
	case StepDropDeviceOnlyUnbind:
		if !d.SupportsUnbind(core.UnbindDevIDAlone) {
			return d, false
		}
		forms := d.UnbindForms[:0:0]
		for _, f := range d.UnbindForms {
			if f != core.UnbindDevIDAlone {
				forms = append(forms, f)
			}
		}
		if len(forms) == 0 {
			forms = []core.UnbindForm{core.UnbindDevIDUserToken}
			d.CheckBoundUserOnUnbind = true
		}
		d.UnbindForms = forms
		// Dropping the reset-time unbind also drops the reset-notify
		// behaviour that depended on it.
		d.ResetUnbindsOnSetup = false
		return d, true
	case StepPostBindingToken:
		if d.PostBindingToken || d.Binding != core.BindACLApp {
			return d, false
		}
		d.PostBindingToken = true
		return d, true
	default:
		return d, false
	}
}

// Plan is a repair recommendation.
type Plan struct {
	// Steps is a minimal set of hardening measures, in canonical order.
	Steps []Step
	// Hardened is the design with the steps applied.
	Hardened core.DesignSpec
	// AttacksBefore and AttacksAfter count the analyzer-predicted
	// successful attacks.
	AttacksBefore, AttacksAfter int
	// Verified reports that the model checker proves all five safety
	// properties on the hardened design.
	Verified bool
}

// Recommend searches for a minimal set of hardening steps that reduces
// the design's predicted successful attacks to zero, then verifies the
// hardened design with the model checker. It returns an error when the
// design cannot be repaired within the step vocabulary.
func Recommend(design core.DesignSpec) (Plan, error) {
	if err := design.Validate(); err != nil {
		return Plan{}, fmt.Errorf("harden: %w", err)
	}
	before := countAttacks(design)
	if before == 0 {
		verified, err := verify(design)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Hardened: design, AttacksBefore: 0, AttacksAfter: 0, Verified: verified}, nil
	}

	steps := AllSteps()
	// Enumerate subsets by increasing size: the first fixing subset is
	// minimal. The vocabulary is small (2^6 subsets).
	for size := 1; size <= len(steps); size++ {
		subsets := combinations(len(steps), size)
		for _, idxs := range subsets {
			candidate, applied, ok := applyAll(design, idxs, steps)
			if !ok {
				continue
			}
			if candidate.Validate() != nil {
				continue
			}
			if countAttacks(candidate) != 0 {
				continue
			}
			verified, err := verify(candidate)
			if err != nil {
				return Plan{}, err
			}
			if !verified {
				continue
			}
			sort.Slice(applied, func(i, j int) bool { return applied[i] < applied[j] })
			return Plan{
				Steps:         applied,
				Hardened:      candidate,
				AttacksBefore: before,
				AttacksAfter:  0,
				Verified:      true,
			}, nil
		}
	}
	return Plan{}, fmt.Errorf("harden: no step combination repairs design %q", design.Name)
}

// applyAll applies the chosen steps, requiring each to be applicable.
func applyAll(d core.DesignSpec, idxs []int, steps []Step) (core.DesignSpec, []Step, bool) {
	applied := make([]Step, 0, len(idxs))
	for _, i := range idxs {
		next, ok := steps[i].apply(d)
		if !ok {
			return d, nil, false
		}
		d = next
		applied = append(applied, steps[i])
	}
	return d, applied, true
}

// countAttacks counts analyzer-predicted successful attacks.
func countAttacks(d core.DesignSpec) int {
	n := 0
	for _, f := range analysis.PredictAll(d) {
		if f.Outcome == core.OutcomeSucceeded {
			n++
		}
	}
	return n
}

// verify runs the model checker and reports whether every property holds.
func verify(d core.DesignSpec) (bool, error) {
	results, err := modelcheck.Check(d)
	if err != nil {
		return false, fmt.Errorf("harden: %w", err)
	}
	for _, r := range results {
		if !r.Holds {
			return false, nil
		}
	}
	return true, nil
}

// combinations enumerates k-element index subsets of [0,n).
func combinations(n, k int) [][]int {
	var out [][]int
	idxs := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]int(nil), idxs...))
			return
		}
		for i := start; i < n; i++ {
			idxs[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
