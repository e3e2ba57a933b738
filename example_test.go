package iotbind_test

import (
	"fmt"

	iotbind "github.com/iotbind/iotbind"
	"github.com/iotbind/iotbind/internal/core"
)

// ExamplePredictAll analyzes a remote-binding design on paper — no
// emulation — and prints the attacks it admits.
func ExamplePredictAll() {
	design := iotbind.DesignSpec{
		Name:       "example-product",
		DeviceAuth: iotbind.AuthDevID, // static device IDs
		Binding:    iotbind.BindACLApp,
		UnbindForms: []iotbind.UnbindForm{
			iotbind.UnbindDevIDUserToken,
		},
		CheckBoundUserOnBind: true,
		// CheckBoundUserOnUnbind deliberately absent.
	}
	for _, f := range iotbind.PredictAll(design) {
		if f.Outcome == iotbind.OutcomeSucceeded {
			fmt.Printf("%v: %s\n", f.Variant, f.Reason)
		}
	}
	// Output:
	// A1: static device ID authenticates forged status messages; data flows both ways
	// A2: first-come binding with a leaked device ID locks the legitimate user out
	// A3-2: any valid user token revokes any binding: the bound-user check is missing
	// A4-3: forged unbind opens the online state; a forged bind then hijacks the device
}

// ExampleDiscoverAttacks lets the searcher find the minimal hijack chain
// against the TP-LINK design with no taxonomy knowledge.
func ExampleDiscoverAttacks() {
	profile, _ := iotbind.ByVendor("TP-LINK")
	attacks, err := iotbind.DiscoverAttacks(profile.Design, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range attacks {
		if a.Goal == core.GoalHijack {
			fmt.Println(a)
		}
	}
	// Output:
	// steady-control: hijack-device via [forge-unbind-devid forge-bind]
}

// ExampleEstimateEnumeration quantifies the Section I claim that short
// digit IDs fall within an hour.
func ExampleEstimateEnumeration() {
	gen, _ := iotbind.NewShortDigitsGenerator(6)
	est, _ := iotbind.EstimateEnumeration(gen, 3000)
	fmt.Printf("6-digit IDs at 3000 req/s: sweep %v, within an hour: %v\n",
		est.FullSweep, est.WithinHour)
	// Output:
	// 6-digit IDs at 3000 req/s: sweep 5m33.333333333s, within an hour: true
}
