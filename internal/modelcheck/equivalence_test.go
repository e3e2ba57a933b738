package modelcheck_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestCheckDelegationMatchesReference: under all eight settings of the
// delegation flags — the only fields the sub-model reads — the same
// verdicts, state counts and traces as the search that rebuilt a trace
// per state, and, by the digest, as the commit before states were packed
// printed them.
func TestCheckDelegationMatchesReference(t *testing.T) {
	digest := sha256.New()
	for flags := 0; flags < 8; flags++ {
		d := vendors.WorstCase().Design
		d.DelegationScopeAttenuation = flags&1 != 0
		d.DelegationCascadeRevoke = flags&2 != 0
		d.DelegationCheckAtUse = flags&4 != 0
		got, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatalf("flags %03b: %v", flags, err)
		}
		if want := modelcheck.ReferenceCheckDelegation(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("flags %03b:\n got %v\nwant %v", flags, got, want)
		}
		fmt.Fprintf(digest, "%d %v\n", flags, got)
	}
	const parent = "83951c73b78bd4eff1c6c50aee1c988b28ea978dd81ec77b015f9311d5a3578c"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("digest %s, the parent commit's CheckDelegation gave %s", got, parent)
	}
}

// TestCheckMatchesReference is the same for Check, on every design the
// lattice admits with the delegation flags unset (Check reads none of
// them): 73 728 designs.
func TestCheckMatchesReference(t *testing.T) {
	digest := sha256.New()
	n := 0
	core.EachDesign(func(d core.DesignSpec) bool {
		if d.DelegationScopeAttenuation || d.DelegationCascadeRevoke || d.DelegationCheckAtUse {
			return true
		}
		got, err := modelcheck.Check(d)
		if err != nil {
			t.Fatalf("design %d: %v", n, err)
		}
		if want := modelcheck.ReferenceCheck(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("design %d (%+v):\n got %v\nwant %v", n, d, got, want)
		}
		fmt.Fprintf(digest, "%d %v\n", n, got)
		n++
		return true
	})
	if n != 73728 {
		t.Errorf("%d designs, want 73 728", n)
	}
	const parent = "828bc2b2f32b357c742affdc3ae57ae6f8f33650168a9214953b7ddeb8fe7701"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("lattice digest %s, the parent commit's Check gave %s", got, parent)
	}
}

// TestPredictMatchesParentDigest pins the analyzer's verdicts — each
// variant's outcome under PredictAll — on the same 73 728 designs to the
// digest the parent commit's analyzer printed, so a change that moves no
// verdict on purpose is seen to move none.
func TestPredictMatchesParentDigest(t *testing.T) {
	digest := sha256.New()
	n := 0
	core.EachDesign(func(d core.DesignSpec) bool {
		if d.DelegationScopeAttenuation || d.DelegationCascadeRevoke || d.DelegationCheckAtUse {
			return true
		}
		for _, f := range analysis.PredictAll(d) {
			fmt.Fprintf(digest, "%d %v %v\n", n, f.Variant, f.Outcome)
		}
		n++
		return true
	})
	if n != 73728 {
		t.Errorf("%d designs, want 73 728", n)
	}
	const parent = "3929d95c2e45ef7f66d18403b631baabf7964905538a2b2b162ec310fd925a7f"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("lattice digest %s, the parent commit's PredictAll gave %s", got, parent)
	}
}

// FuzzCheckMatchesReference holds Check and CheckDelegation to the
// reference search on designs drawn field by field from the input.
func FuzzCheckMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x09, 0x41, 0xff, 0x0f})
	f.Add([]byte{0x1a, 0x52, 0x3c, 0xa5, 0x7e})
	f.Fuzz(func(t *testing.T, b []byte) {
		d := designFromBytes(b)
		if d.Validate() != nil {
			return
		}
		got, err := modelcheck.Check(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := modelcheck.ReferenceCheck(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v:\n got %v\nwant %v", d, got, want)
		}
		gotD, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := modelcheck.ReferenceCheckDelegation(d); !reflect.DeepEqual(gotD, want) {
			t.Fatalf("%+v:\n got %v\nwant %v", d, gotD, want)
		}
	})
}

// designFromBytes draws every field of a design from the bits of b, the
// values Validate refuses included; bits past b's end read as zero.
func designFromBytes(b []byte) core.DesignSpec {
	var bits uint64
	for i := 0; i < len(b) && i < 8; i++ {
		bits |= uint64(b[i]) << (8 * i)
	}
	take := func(n uint) int {
		v := int(bits & (1<<n - 1))
		bits >>= n
		return v
	}
	d := core.DesignSpec{
		Name:        "fuzz",
		DeviceAuth:  core.DeviceAuthMode(take(3)),
		AssumedAuth: core.DeviceAuthMode(take(2)),
		Binding:     core.BindMechanism(take(2)),
	}
	for n := take(2); n > 0; n-- {
		d.UnbindForms = append(d.UnbindForms, core.UnbindForm(take(2)))
	}
	v := reflect.ValueOf(&d).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Bool {
			f.SetBool(take(1) == 1)
		}
	}
	return d
}
