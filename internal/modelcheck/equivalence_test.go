package modelcheck_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

// equivalenceCorpus is what the rewritten search is held to the old one
// on: the three reference postures, the permissive one under all eight
// settings of the delegation flags, every vendor, and 300 seeded random
// valid designs with random delegation flags.
func equivalenceCorpus() []core.DesignSpec {
	designs := []core.DesignSpec{
		vendors.SecureReference().Design,
		vendors.RecommendedPractice().Design,
		vendors.WorstCase().Design,
	}
	for flags := 0; flags < 8; flags++ {
		d := vendors.WorstCase().Design
		d.DelegationScopeAttenuation = flags&1 != 0
		d.DelegationCascadeRevoke = flags&2 != 0
		d.DelegationCheckAtUse = flags&4 != 0
		designs = append(designs, d)
	}
	for _, p := range vendors.Profiles() {
		designs = append(designs, p.Design)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		d := randomDesign(rng)
		d.DelegationScopeAttenuation = rng.Intn(2) == 0
		d.DelegationCascadeRevoke = rng.Intn(2) == 0
		d.DelegationCheckAtUse = rng.Intn(2) == 0
		designs = append(designs, d)
	}
	return designs
}

// TestCheckDelegationMatchesReference: same verdicts, same state counts
// and the very same traces as the search that rebuilt a trace per state —
// and, by the digest, as the commit before the rewrite printed them.
func TestCheckDelegationMatchesReference(t *testing.T) {
	digest := sha256.New()
	for i, d := range equivalenceCorpus() {
		got, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		if want := modelcheck.ReferenceCheckDelegation(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("design %d (%+v):\n got %v\nwant %v", i, d, got, want)
		}
		fmt.Fprintf(digest, "%d %v\n", i, got)
	}
	const parent = "6ea2e4892156f1397d4ea32485fd3592f2b0693220a6ee836724cecd771e7172"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("corpus digest %s, the parent commit's CheckDelegation gave %s", got, parent)
	}
}

// TestCheckMatchesReference is the same for Check.
func TestCheckMatchesReference(t *testing.T) {
	digest := sha256.New()
	for i, d := range equivalenceCorpus() {
		got, err := modelcheck.Check(d)
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		if want := modelcheck.ReferenceCheck(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("design %d (%+v):\n got %v\nwant %v", i, d, got, want)
		}
		fmt.Fprintf(digest, "%d %v\n", i, got)
	}
	const parent = "483f2fb117acc4f5b6b51ec212277969f3bcf4ff441a41e1fcbd1e0f7fcfa288"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("corpus digest %s, the parent commit's reference search gave %s", got, parent)
	}
}

// TestCheckDelegationAllocations: an exploration keeps its state map, its
// search order and one trace per succeeding row — not a trace per
// reachable state (1 731 allocations on the permissive posture before).
func TestCheckDelegationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, c := range []struct {
		p   vendors.Profile
		max float64
	}{
		{vendors.WorstCase(), 40},       // 145 states, three traces; 27 measured
		{vendors.SecureReference(), 20}, // 13 states, no trace; 12 measured
		{vendors.RecommendedPractice(), 20},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := modelcheck.CheckDelegation(c.p.Design); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations", c.p.Design.Name, n)
		if n > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.p.Design.Name, n, c.max)
		}
	}
}
