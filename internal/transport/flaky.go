package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrUnavailable is the default injected transport failure.
var ErrUnavailable = errors.New("transport: cloud unavailable")

// Flaky wraps a Cloud and injects transport failures on a deterministic
// schedule — every Nth call fails — for exercising the agents' error
// paths: half-finished setups, dropped heartbeats, rejected forgeries.
type Flaky struct {
	Hopped
	inner Cloud

	mu        sync.Mutex
	failEvery int
	calls     int
	failures  int
	err       error
}

// NewFlaky wraps a cloud so that every failEvery-th call (1-based) fails
// with ErrUnavailable. failEvery <= 0 never fails.
func NewFlaky(inner Cloud, failEvery int) *Flaky {
	f := &Flaky{inner: inner, failEvery: failEvery, err: ErrUnavailable}
	f.Hopped = NewHopped(flakyHop{f})
	return f
}

// SetError overrides the injected error. A nil err restores the default
// ErrUnavailable: injecting a literal nil would make tick wrap a nil
// target, producing errors that satisfy err != nil but match nothing under
// errors.Is — every ErrUnavailable caller would misclassify the outage.
func (f *Flaky) SetError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrUnavailable
	}
	f.err = err
}

// Calls reports how many calls the wrapper has seen.
func (f *Flaky) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Failures reports how many calls were failed by injection.
func (f *Flaky) Failures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failures
}

// tick advances the schedule, returning the injected error when this call
// should fail.
func (f *Flaky) tick(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failEvery > 0 && f.calls%f.failEvery == 0 {
		f.failures++
		return fmt.Errorf("flaky %s: %w", op, f.err)
	}
	return nil
}

// flakyHop ticks the schedule once per call — a batch is one wire
// message, so the whole batch is delivered or lost together.
type flakyHop struct{ f *Flaky }

func (h flakyHop) Begin(op Op, _ string) (Cloud, error) {
	if err := h.f.tick(op); err != nil {
		return nil, err
	}
	return h.f.inner, nil
}

func (h flakyHop) End(_ Op, err error) error { return err }
