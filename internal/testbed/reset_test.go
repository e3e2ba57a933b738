package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/vendors"
)

// world is everything one cell leaves behind that a residue of an earlier
// cell could change: the verdict and its text, the cloud's snapshot with
// its random values masked, the shadow's Figure 2 trace, the registry and
// the home network, and what the device, the victim's app and the attacker
// hold.
type world struct {
	Result       Result
	Err          string
	Snapshot     cloud.Snapshot
	Trace        []core.Transition
	Registry     []string
	Members      []string
	Executed     []protocol.Command
	Received     []protocol.UserData
	SetupMode    bool
	Active       bool
	AppSession   string
	Stolen       []protocol.UserData
	StaleHookRan bool
}

// cell is one experiment of the gate: a variant on a design, with the
// device ID the victim's device gets.
type cell struct {
	design   core.DesignSpec
	variant  core.AttackVariant
	deviceID string
}

// runCell resets tb for c, runs it and records the world it leaves. On a
// used testbed a stale pre-bind hook is installed before the Reset, which
// must drop it.
func runCell(tb *Testbed, c cell, used bool) world {
	staleRan := false
	if used {
		tb.SetPreBindHook(func() { staleRan = true })
	}
	r, err := tb.evaluate(c.design, c.variant, WithDeviceID(c.deviceID))
	w := world{Result: r, StaleHookRan: staleRan}
	if err != nil {
		w.Err = err.Error()
		return w
	}
	svc := tb.Cloud()
	w.Snapshot = masked(svc.Snapshot())
	w.Trace = svc.ShadowTrace(c.deviceID)
	w.Registry = svc.Registry().IDs()
	w.Members = tb.home.Members()
	w.Executed = tb.dev.Executed()
	w.Received = tb.dev.ReceivedData()
	w.SetupMode, w.Active = tb.dev.InSetupMode(), tb.dev.Active()
	w.AppSession = mask(tb.victim.SessionToken(c.deviceID))
	w.Stolen = tb.atk.StolenData()
	return w
}

// mask hides a random value, keeping whether there is one.
func mask(v string) string {
	if v == "" {
		return ""
	}
	return "<random>"
}

// masked hides the snapshot's random values — credential values and
// session nonces — and orders the tokens by what is left of them.
func masked(snap cloud.Snapshot) cloud.Snapshot {
	for i := range snap.Tokens {
		snap.Tokens[i].Value = mask(snap.Tokens[i].Value)
	}
	sort.SliceStable(snap.Tokens, func(i, j int) bool {
		a, b := snap.Tokens[i], snap.Tokens[j]
		return fmt.Sprint(a.Kind, a.Owner, a.Subject, a.IssuedAt.UnixNano()) < fmt.Sprint(b.Kind, b.Owner, b.Subject, b.IssuedAt.UnixNano())
	})
	for i := range snap.Shadows {
		sh := &snap.Shadows[i]
		sh.SessionToken, sh.SessionNonce = mask(sh.SessionToken), mask(sh.SessionNonce)
	}
	return snap
}

// TestResetMatchesFresh is Reset's residue gate: a cell run on a testbed
// that earlier cells used must leave exactly the world the cell leaves on
// a fresh testbed. One testbed runs every vendor cell in forward, reverse
// and seeded-shuffled order, then a seeded sample of the design lattice
// with a device ID per cell, so that a shard Reset skipped keeps a shadow
// the next snapshot shows.
func TestResetMatchesFresh(t *testing.T) {
	var vendorCells []cell
	for _, p := range vendors.Profiles() {
		for _, v := range core.AllAttackVariants() {
			vendorCells = append(vendorCells, cell{p.Design, v, DefaultDeviceID})
		}
	}
	reversed := make([]cell, len(vendorCells))
	for i, c := range vendorCells {
		reversed[len(reversed)-1-i] = c
	}
	rng := rand.New(rand.NewSource(41))
	shuffled := append([]cell(nil), vendorCells...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	var sample []core.DesignSpec
	seen := 0
	core.EachDesign(func(d core.DesignSpec) bool { // reservoir sampling
		if seen++; len(sample) < 200 {
			sample = append(sample, d)
		} else if j := rng.Intn(seen); j < len(sample) {
			sample[j] = d
		}
		return true
	})
	var latticeCells []cell
	for i, d := range sample {
		for _, v := range core.AllAttackVariants() {
			id := fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", i, int(v), rng.Intn(256))
			latticeCells = append(latticeCells, cell{d, v, id})
		}
	}
	rng.Shuffle(len(latticeCells), func(i, j int) { latticeCells[i], latticeCells[j] = latticeCells[j], latticeCells[i] })

	tb := new(Testbed)
	for _, order := range []struct {
		name  string
		cells []cell
	}{
		{"forward", vendorCells}, {"reverse", reversed}, {"shuffled", shuffled}, {"lattice", latticeCells},
	} {
		for i, c := range order.cells {
			fresh, reset := runCell(new(Testbed), c, false), runCell(tb, c, true)
			if !reflect.DeepEqual(fresh, reset) {
				t.Fatalf("%s cell %d, %s × %v on %s: the reset testbed differs from a fresh one\nfresh: %+v\nreset: %+v",
					order.name, i, c.design.Name, c.variant, c.deviceID, fresh, reset)
			}
		}
	}
}
