package testbed

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/retry"
	"github.com/iotbind/iotbind/internal/transport"
)

func lossDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                   "loss-sweep",
		DeviceAuth:             core.AuthDevToken,
		Binding:                core.BindACLApp,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
		PostBindingToken:       true,
	}
}

// TestBindingUnderLossLifecycleSurvives is the acceptance test for the
// fault-and-recovery layer: with a quarter of all deliveries failing
// (half dropped before the cloud, half after it mutated state), the full
// bind life cycle still completes through retries, and the final shadow
// state — position, bound user, and number of bind transitions — is
// identical to a fault-free run's. The at-least-once redeliveries that
// the idempotency log absorbed are counted to prove that path ran.
func TestBindingUnderLossLifecycleSurvives(t *testing.T) {
	cfg := lossConfig{
		Design:      lossDesign(),
		Rates:       []float64{0.25},
		Trials:      8,
		Seed:        42,
		MaxAttempts: 8,
	}
	points, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	pt := points[0]
	if pt.Succeeded != pt.Trials {
		t.Errorf("succeeded %d/%d life cycles at 25%% loss — retries did not recover, or recovery changed final state",
			pt.Succeeded, pt.Trials)
	}
	if pt.InjectedFailures == 0 {
		t.Error("0 injected failures at 25% — the plane never fired, the run proves nothing")
	}
	if pt.Deduplicated == 0 {
		t.Error("0 deduplicated redeliveries — the fail-after + idempotency path was never exercised")
	}
}

// TestBindingUnderLossDeterministic proves the whole sweep is a pure
// function of its config: same seed, same points.
func TestBindingUnderLossDeterministic(t *testing.T) {
	cfg := lossConfig{
		Design: lossDesign(),
		Rates:  []float64{0.1, 0.3},
		Trials: 4,
		Seed:   7,
	}
	a, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d diverged across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBindingUnderLossRequiresUnbindForm proves the sweep rejects designs
// whose life cycle it cannot complete, instead of failing obscurely.
func TestBindingUnderLossRequiresUnbindForm(t *testing.T) {
	d := lossDesign()
	d.UnbindForms = []core.UnbindForm{core.UnbindDevIDAlone}
	if _, err := runBindingUnderLoss(lossConfig{Design: d, Rates: []float64{0.1}, Trials: 1, Seed: 1}); err == nil {
		t.Fatal("sweep accepted a design without the owner-unbind form")
	}
}

// lossConfig parameterizes a binding-under-loss sweep: the full binding
// life cycle (register, login, setup, heartbeat, control round-trip,
// unbind) is run repeatedly against a cloud behind a seeded fault plane,
// at each injected failure rate, with retrying agents.
type lossConfig struct {
	// Design is the vendor design under test. It must support the
	// app-sent Unbind:(DevId,UserToken) form, since the life cycle ends
	// with the owner unbinding.
	Design core.DesignSpec
	// Rates are the injected failure rates to sweep (each is split evenly
	// between fail-before-delivery and fail-after-delivery).
	Rates []float64
	// Trials is the number of life cycles per rate.
	Trials int
	// Seed drives the fault plane and retry jitter; a given
	// (Seed, Design, Rates, Trials) is fully reproducible.
	Seed int64
	// MaxAttempts bounds deliveries per logical call (0 means the retry
	// default).
	MaxAttempts int
}

// lossPoint is one observation of the sweep.
type lossPoint struct {
	// FailureRate is the injected per-call failure probability.
	FailureRate float64
	// Trials and Succeeded count life cycles run and completed with the
	// fault-free final state.
	Trials, Succeeded int
	// SuccessRate is Succeeded/Trials.
	SuccessRate float64
	// InjectedFailures totals the faults the plane injected at this rate.
	InjectedFailures int
	// Deduplicated totals the redelivered Bind/Unbind requests the cloud
	// answered from its idempotency log at this rate — each one is a
	// retry that would have double-executed (or spuriously failed)
	// without deduplication.
	Deduplicated int64
}

// lifecycleState captures the checkpoints a trial is judged on.
type lifecycleState struct {
	boundState core.ShadowState // after setup + settle heartbeat
	boundUser  string
	finalState core.ShadowState // after the owner's unbind
	finalUser  string
	bindEvents int // EventBind count in the shadow trace
}

// runBindingUnderLoss sweeps the binding life cycle across injected
// failure rates. A trial succeeds only if every life-cycle step completes
// (through retries) and the shadow's checkpoints — state-machine position,
// bound user, and the number of bind transitions — are identical to a
// fault-free run's: retries must never change the state a reliable
// network would have produced, and a bind must never apply twice.
func runBindingUnderLoss(cfg lossConfig) ([]lossPoint, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if !cfg.Design.SupportsUnbind(core.UnbindDevIDUserToken) {
		return nil, fmt.Errorf("testbed: loss sweep needs the Unbind:(DevId,UserToken) form in design %q", cfg.Design.Name)
	}

	// The fault-free reference: what a reliable network produces.
	want, ok, err := runLossTrial(cfg.Design, 0, cfg.Seed, cfg.MaxAttempts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("testbed: fault-free life cycle failed for design %q", cfg.Design.Name)
	}

	points := make([]lossPoint, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		pt := lossPoint{FailureRate: rate, Trials: cfg.Trials}
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(1+i*cfg.Trials+trial)
			got, completed, injected, deduped, err := runLossTrialObserved(cfg.Design, rate, seed, cfg.MaxAttempts)
			if err != nil {
				return nil, err
			}
			pt.InjectedFailures += injected
			pt.Deduplicated += deduped
			if completed && got == want {
				pt.Succeeded++
			}
		}
		pt.SuccessRate = float64(pt.Succeeded) / float64(pt.Trials)
		points = append(points, pt)
	}
	return points, nil
}

// runLossTrial runs one life cycle, reporting its checkpoints and whether
// every step completed. Errors are reserved for structural failures
// (invalid design, rig construction); a life cycle defeated by loss is
// (state, false, nil).
func runLossTrial(design core.DesignSpec, rate float64, seed int64, maxAttempts int) (lifecycleState, bool, error) {
	st, ok, _, _, err := runLossTrialObserved(design, rate, seed, maxAttempts)
	return st, ok, err
}

func runLossTrialObserved(design core.DesignSpec, rate float64, seed int64, maxAttempts int) (st lifecycleState, completed bool, injected int, deduped int64, err error) {
	clock := &Clock{t: labEpoch}
	registry := cloud.NewRegistry()
	if err := registry.Add(cloud.DeviceRecord{
		ID:            defaultDeviceID,
		FactorySecret: "factory-secret-" + defaultDeviceID,
		Model:         design.Name,
	}); err != nil {
		return st, false, 0, 0, fmt.Errorf("testbed: %w", err)
	}
	svc, err := cloud.NewService(design, registry, cloud.WithClock(clock.Now))
	if err != nil {
		return st, false, 0, 0, fmt.Errorf("testbed: %w", err)
	}

	plane := transport.NewFaultPlane(seed,
		transport.WithFailBeforeRate(rate/2),
		transport.WithFailAfterRate(rate/2),
		transport.WithFaultClock(clock.Now))

	home := localnet.NewNetwork("victim-home", defaultHomeIP)
	stamped := transport.StampSource(svc, home.PublicIP())
	policy := retry.Policy{
		MaxAttempts: maxAttempts,
		BaseDelay:   retry.DefaultBaseDelay,
		MaxDelay:    retry.DefaultMaxDelay,
		Seed:        seed + 1,
		Sleep:       func(time.Duration) {}, // simulated time: no real waits
	}
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = retry.DefaultMaxAttempts
	}

	dev, err := device.New(device.Config{
		ID:            defaultDeviceID,
		FactorySecret: "factory-secret-" + defaultDeviceID,
		LocalName:     "victim-device",
		Model:         design.Name,
	}, design, plane.Wrap(stamped, transport.PartyDevice),
		device.WithClock(clock.Now), device.WithRetry(policy))
	if err != nil {
		return st, false, 0, 0, fmt.Errorf("testbed: %w", err)
	}
	defer dev.Close()
	if err := home.Join(dev); err != nil {
		return st, false, 0, 0, fmt.Errorf("testbed: %w", err)
	}

	appPolicy := policy
	appPolicy.Seed = seed + 2
	victim, err := app.New(defaultVictimUser, "pw-victim", design,
		plane.Wrap(stamped, transport.PartyApp), home, app.WithRetry(appPolicy))
	if err != nil {
		return st, false, 0, 0, fmt.Errorf("testbed: %w", err)
	}
	defer victim.Close()

	actions := userActions{dev: dev}
	shadow := func() (protocol.ShadowStateResponse, error) {
		// Read the shadow through the service directly: diagnostics are
		// not subject to the faulted network.
		return svc.ShadowState(protocol.ShadowStateRequest{DeviceID: defaultDeviceID})
	}
	fail := func() (lifecycleState, bool, int, int64, error) {
		return st, false, plane.Failures(), svc.Stats().BindsDeduplicated + svc.Stats().UnbindsDeduplicated, nil
	}

	// Life cycle: account, login, setup (bind), settle, control, unbind.
	// Account creation has no idempotency key (only Bind/Unbind do), so a
	// redelivery whose first attempt was applied comes back ErrUserExists;
	// for this app that is success — the account it wanted now exists.
	if err := victim.RegisterAccount(); err != nil && !errors.Is(err, protocol.ErrUserExists) {
		return fail()
	}
	if err := victim.Login(); err != nil {
		return fail()
	}
	if err := victim.SetupDevice(dev.LocalName(), actions); err != nil {
		return fail()
	}
	clock.Advance(cloud.DefaultButtonWindow + time.Second)
	if err := dev.Heartbeat(); err != nil {
		return fail()
	}

	// Control must round-trip to the device's executed log. A command can
	// be drained by a heartbeat delivery whose response was lost — gone
	// like a real lossy downlink — so unacknowledged commands are
	// re-issued with fresh IDs, as real apps do.
	controlled := false
	for i := 0; i < 5 && !controlled; i++ {
		id := fmt.Sprintf("loss-probe-%d", i)
		if err := victim.Control(defaultDeviceID, protocol.Command{ID: id, Name: "probe"}); err != nil {
			continue
		}
		_ = dev.Heartbeat()
		for _, c := range dev.Executed() {
			if c.ID == id {
				controlled = true
				break
			}
		}
	}
	if !controlled {
		return fail()
	}

	mid, err := shadow()
	if err != nil {
		return fail()
	}
	st.boundState = mid.State
	st.boundUser = mid.BoundUser

	if err := victim.Unbind(defaultDeviceID); err != nil {
		return fail()
	}
	fin, err := shadow()
	if err != nil {
		return fail()
	}
	st.finalState = fin.State
	st.finalUser = fin.BoundUser
	for _, tr := range svc.ShadowTrace(defaultDeviceID) {
		if tr.Event == core.EventBind {
			st.bindEvents++
		}
	}
	return st, true, plane.Failures(), svc.Stats().BindsDeduplicated + svc.Stats().UnbindsDeduplicated, nil
}
