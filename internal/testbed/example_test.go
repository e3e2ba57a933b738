package testbed_test

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// ExampleEvaluate launches one live attack experiment against an emulated
// vendor cloud.
func ExampleEvaluate() {
	profile, _ := vendors.ByVendor("E-Link Smart")
	result, err := testbed.Evaluate(profile.Design, core.VariantA4x1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%v against %s: %v\n", result.Variant, profile.Vendor, result.Outcome)
	// Output:
	// A4-1 against E-Link Smart: ✓
}
