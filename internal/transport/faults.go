package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrUnavailable is the transport failure: the request, or its response,
// was lost. FaultPlane injects it and httpapi.Client wraps it around
// network errors, so agents and retry policies classify both alike.
var ErrUnavailable = errors.New("transport: cloud unavailable")

// errPartitioned is injected while a party sits inside a partition window.
// It wraps ErrUnavailable so errors.Is(err, ErrUnavailable) callers match
// it like any other lost call.
var errPartitioned = fmt.Errorf("transport: network partitioned: %w", ErrUnavailable)

// Well-known party names for fault targeting. A FaultPlane keys partition
// windows by these, matching the three parties of the paper's threat model.
const (
	PartyDevice = "device"
	PartyApp    = "app"
)

// FaultPlane is the shared scheduler behind a set of Faults wrappers: one
// seeded RNG, one clock, one partition table, so an experiment's whole
// network degrades under a single reproducible plan. All methods are safe
// for concurrent use.
//
// Three fault kinds compose:
//
//   - fail-before-delivery: the call never reaches the inner cloud (the
//     dropped-request case);
//   - fail-after-delivery: the inner cloud runs — and may mutate state —
//     but the caller sees ErrUnavailable, as if the response was lost.
//     This is the at-least-once case that forces retry deduplication;
//   - partitions: a per-party window during which every call from that
//     party fails with errPartitioned before delivery.
type FaultPlane struct {
	mu         sync.Mutex
	rng        *rand.Rand
	now        func() time.Time
	failBefore float64
	failAfter  float64
	partitions map[string]time.Time

	calls       int
	droppedPre  int
	droppedPost int
	partitioned int
}

// FaultOption configures a FaultPlane.
type FaultOption func(*FaultPlane)

// WithFailBeforeRate sets the probability (0..1) that a call fails before
// reaching the inner cloud.
func WithFailBeforeRate(rate float64) FaultOption {
	return func(p *FaultPlane) { p.failBefore = rate }
}

// WithFailAfterRate sets the probability (0..1) that a call's response is
// lost after the inner cloud already processed it.
func WithFailAfterRate(rate float64) FaultOption {
	return func(p *FaultPlane) { p.failAfter = rate }
}

// WithFaultClock injects the experiment clock that positions partition
// windows.
func WithFaultClock(now func() time.Time) FaultOption {
	return func(p *FaultPlane) { p.now = now }
}

// NewFaultPlane builds a fault plane whose schedule is a pure function of
// the seed and the call sequence, per the determinism conventions.
func NewFaultPlane(seed int64, opts ...FaultOption) *FaultPlane {
	p := &FaultPlane{
		rng:        rand.New(rand.NewSource(seed)),
		now:        time.Now,
		partitions: make(map[string]time.Time),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Wrap returns a Cloud view of inner whose calls are subjected to this
// plane's faults, attributed to the named party.
func (p *FaultPlane) Wrap(inner Cloud, party string) *Faults {
	f := &Faults{inner: inner, party: party, plane: p}
	f.Hopped = NewHopped(faultsHop{f})
	return f
}

// Partition opens (or extends) a partition window for the named party:
// every call it makes before now+d fails with errPartitioned.
func (p *FaultPlane) Partition(party string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitions[party] = p.now().Add(d)
}

// Heal closes the named party's partition window immediately.
func (p *FaultPlane) Heal(party string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.partitions, party)
}

// Calls reports how many calls the plane has scheduled.
func (p *FaultPlane) Calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Failures reports every injected failure — before-delivery, after-delivery
// and partition drops.
func (p *FaultPlane) Failures() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.droppedPre + p.droppedPost + p.partitioned
}

// FailuresBefore reports calls dropped before reaching the inner cloud
// (partition drops included).
func (p *FaultPlane) FailuresBefore() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.droppedPre + p.partitioned
}

// FailuresAfter reports responses lost after the inner cloud processed the
// call — each one is a state mutation the caller never heard about.
func (p *FaultPlane) FailuresAfter() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.droppedPost
}

// before applies partition and fail-before faults for one call.
func (p *FaultPlane) before(party string, op Op) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if until, ok := p.partitions[party]; ok {
		if p.now().Before(until) {
			p.partitioned++
			return fmt.Errorf("faults %s %s: %w", party, op, errPartitioned)
		}
		delete(p.partitions, party)
	}
	if p.failBefore > 0 && p.rng.Float64() < p.failBefore {
		p.droppedPre++
		return fmt.Errorf("faults %s %s: request lost: %w", party, op, ErrUnavailable)
	}
	return nil
}

// after applies the fail-after-delivery fault for one call that the inner
// cloud has already processed.
func (p *FaultPlane) after(party string, op Op) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failAfter > 0 && p.rng.Float64() < p.failAfter {
		p.droppedPost++
		return fmt.Errorf("faults %s %s: response lost: %w", party, op, ErrUnavailable)
	}
	return nil
}

// Faults subjects one party's view of a cloud to the plane's faults. It
// composes with the other wrappers: stamp the source first, then wrap the
// stamped transport, then (outermost) a retry layer if the agent has one.
type Faults struct {
	Hopped
	inner Cloud
	party string
	plane *FaultPlane
}

// faultsHop draws one fault-schedule slot per call: the message is
// dropped before or after delivery, or delivered. A call the backend
// itself failed draws no fail-after fault.
type faultsHop struct{ f *Faults }

func (h faultsHop) Begin(op Op, _ string) (Cloud, error) {
	if err := h.f.plane.before(h.f.party, op); err != nil {
		return nil, err
	}
	return h.f.inner, nil
}

func (h faultsHop) End(op Op, _ int, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return false, h.f.plane.after(h.f.party, op)
}
