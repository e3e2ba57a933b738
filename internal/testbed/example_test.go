package testbed_test

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// ExampleEvaluateAll launches every live attack experiment against an
// emulated vendor cloud.
func ExampleEvaluateAll() {
	profile, _ := vendors.ByVendor("E-Link Smart")
	results, err := testbed.EvaluateAll(profile.Design)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, result := range results {
		fmt.Printf("%v against %s: %v\n", result.Variant, profile.Vendor, result.Outcome)
	}
	// Output:
	// A1 against E-Link Smart: O
	// A2 against E-Link Smart: ✗
	// A3-1 against E-Link Smart: O
	// A3-2 against E-Link Smart: ✗
	// A3-3 against E-Link Smart: ✗
	// A3-4 against E-Link Smart: O
	// A4-1 against E-Link Smart: ✓
	// A4-2 against E-Link Smart: ✗
	// A4-3 against E-Link Smart: ✗
}
