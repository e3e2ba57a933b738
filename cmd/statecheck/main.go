// Command statecheck prints and verifies the paper's process model: the
// Figure 2 device-shadow state machine, the Table I notation, and the
// Table II attack taxonomy derived from the state machine. It also runs
// the attack-surface analyzer over any vendor profile or the reference
// designs.
//
// It can also run the automatic attack-discovery search (the Section VIII
// future-work direction): a breadth-first exploration of forged-message
// sequences against the live emulation that reinvents the taxonomy's
// attacks — including the two-step A4-3 hijack chain — without knowing it.
//
// Usage:
//
//	statecheck              # Figure 2 + Table I + derived Table II
//	statecheck -analyze TP-LINK
//	statecheck -analyze worst-case
//	statecheck -discover TP-LINK -depth 2
//	statecheck -delegation secure   # A6 sweep: analyzer vs sub-model
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	iotbind "github.com/iotbind/iotbind"
)

func main() {
	analyze := flag.String("analyze", "", "vendor name (e.g. TP-LINK) or reference design (secure, recommended, worst-case) to analyze")
	discoverFor := flag.String("discover", "", "run automatic attack discovery against the named profile")
	verifyFor := flag.String("formal", "", "formally verify the named profile by exhaustive state-space search")
	hardenFor := flag.String("harden", "", "compute a minimal verified repair plan for the named profile")
	delegationFor := flag.String("delegation", "", "sweep the A6 delegation rows against the named profile (analyzer vs sub-model)")
	depth := flag.Int("depth", 2, "maximum forged-message sequence length for -discover")
	flag.Parse()

	if err := run(os.Stdout, *analyze, *discoverFor, *verifyFor, *hardenFor, *delegationFor, *depth); err != nil {
		fmt.Fprintln(os.Stderr, "statecheck:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, analyze, discoverFor, verifyFor, hardenFor, delegationFor string, depth int) error {
	if delegationFor != "" {
		profile, err := lookupProfile(delegationFor)
		if err != nil {
			return err
		}
		verdicts, err := iotbind.VerifyDelegation(profile.Design)
		if err != nil {
			return err
		}
		return iotbind.WriteDelegation(out, profile.Design, iotbind.PredictDelegation(profile.Design), verdicts)
	}

	if hardenFor != "" {
		profile, err := lookupProfile(hardenFor)
		if err != nil {
			return err
		}
		plan, err := iotbind.RecommendHardening(profile.Design)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Hardening plan for %s: %d predicted attack(s) before repair\n",
			profile.Design.Name, plan.AttacksBefore)
		if len(plan.Steps) == 0 {
			fmt.Fprintln(out, "  nothing to do: the design already verifies clean")
			return nil
		}
		for _, s := range plan.Steps {
			fmt.Fprintf(out, "  - %v\n", s)
		}
		fmt.Fprintf(out, "Result: 0 predicted attacks; formally verified: %v\n", plan.Verified)
		return nil
	}

	if verifyFor != "" {
		profile, err := lookupProfile(verifyFor)
		if err != nil {
			return err
		}
		results, err := iotbind.VerifyDesign(profile.Design)
		if err != nil {
			return err
		}
		return iotbind.WriteVerification(out, profile.Design, results)
	}

	if discoverFor != "" {
		profile, err := lookupProfile(discoverFor)
		if err != nil {
			return err
		}
		attacks, err := iotbind.DiscoverAttacks(profile.Design, depth)
		if err != nil {
			return err
		}
		return iotbind.WriteDiscovery(out, profile.Design, attacks)
	}

	if analyze != "" {
		profile, err := lookupProfile(analyze)
		if err != nil {
			return err
		}
		return iotbind.WriteFindings(out, profile.Design, iotbind.PredictAll(profile.Design))
	}

	if err := iotbind.WriteStateMachine(out); err != nil {
		return err
	}
	if err := iotbind.WriteNotationTable(out); err != nil {
		return err
	}
	return iotbind.WriteTaxonomy(out)
}

func lookupProfile(name string) (iotbind.Profile, error) {
	switch name {
	case "secure":
		return iotbind.SecureReference(), nil
	case "recommended":
		return iotbind.RecommendedPractice(), nil
	case "worst-case":
		return iotbind.WorstCase(), nil
	}
	if p, ok := iotbind.ByVendor(name); ok {
		return p, nil
	}
	return iotbind.Profile{}, fmt.Errorf("unknown profile %q (try a Table III vendor name, secure, recommended, or worst-case)", name)
}
