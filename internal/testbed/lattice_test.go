package testbed

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
)

// TestLiveLattice runs every Table II variant live on every design of the
// live lattice — the delegation flags (only A6 reads them) and
// FirmwareOpaque (it changes only what is reported) unset, 36 864 designs
// — and holds each cell to the analyzer. The designs whose owner cannot
// set them up are exactly those where the app binds before the device
// registers and the registration then drops the fresh binding: a
// session-tied cloud, or a setup reset whose Unbind:DevId the cloud
// accepts. Under the race detector a seeded tenth runs; the whole sweep
// takes about 3 s without it.
func TestLiveLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := new(Testbed)
	designs, unbuildable, ran := 0, 0, 0
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
		if raceEnabled && rng.Intn(10) != 0 {
			return true
		}
		ran++
		results, err := tb.evaluateAll(d)
		switch {
		case dropsOwnBinding:
			if err == nil || !strings.Contains(err.Error(), `setup ended in online bound to ""`) {
				t.Fatalf("%+v: setup drops the owner's own binding, want it refused, got %v", d, err)
			}
		case err != nil:
			t.Fatalf("%+v: %v", d, err)
		default:
			for i, f := range analysis.PredictAll(d) {
				if r := results[i]; r.Outcome != f.Outcome {
					t.Fatalf("%+v: %v live %v (%s), analyzer %v (%s)", d, f.Variant, r.Outcome, r.Detail, f.Outcome, f.Reason)
				}
			}
		}
		return true
	})
	if designs != 36864 || unbuildable != 1440 {
		t.Errorf("%d designs, %d of them unbuildable; want 36 864 and 1 440", designs, unbuildable)
	}
	t.Logf("%d designs run live", ran)
}
