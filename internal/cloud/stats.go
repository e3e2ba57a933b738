package cloud

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Stats is a snapshot of cloud activity counters — the observability
// surface an operator (or an intrusion analyst reproducing the paper's
// experiments) watches. All counters are cumulative since service start.
// The counters are listed once, in statFields; Stats holds their values.
type Stats = statFields[int64]

// statFields lists the activity counters, each of type T: int64 in a
// Stats snapshot, atomic.Int64 in the live statCounters.
type statFields[T any] struct {
	// UsersRegistered counts successful account creations.
	UsersRegistered T
	// Logins and LoginFailures count authentication outcomes.
	Logins, LoginFailures T
	// DeviceTokensIssued and BindTokensIssued count credential grants.
	DeviceTokensIssued, BindTokensIssued T
	// StatusAccepted and StatusRejected count device status handling.
	StatusAccepted, StatusRejected T
	// StatusDeduplicated counts redelivered keyed status messages answered
	// from the idempotency log instead of being executed again.
	StatusDeduplicated T
	// BindsAccepted and BindsRejected count binding creations;
	// BindingsReplaced counts accepted binds that displaced a previous
	// binding (the replace-on-bind path attackers abuse).
	BindsAccepted, BindsRejected, BindingsReplaced T
	// BindsDeduplicated counts redelivered binds answered from the
	// idempotency log instead of being executed again.
	BindsDeduplicated T
	// UnbindsAccepted and UnbindsRejected count binding revocations;
	// UnbindsDeduplicated counts redelivered unbinds answered from the
	// idempotency log.
	UnbindsAccepted, UnbindsRejected, UnbindsDeduplicated T
	// ControlsQueued and ControlsRejected count control relay outcomes.
	ControlsQueued, ControlsRejected T
	// DelegationsGranted and DelegationsRevoked count accepted delegation
	// lattice mutations; DelegationsRejected counts refused ones (either
	// kind), DelegationsDeduplicated the redeliveries answered from the
	// idempotency log.
	DelegationsGranted, DelegationsRevoked T
	DelegationsRejected                    T
	DelegationsDeduplicated                T
}

// statCounters are the live counters behind Stats, kept as plain atomics
// so counting never contends with traffic — a handler bumps its counter
// with one lock-free add, and Stats() assembles a snapshot from
// individual atomic loads. The snapshot is therefore per-counter atomic,
// not cross-counter: a concurrent reader may observe an accepted bind
// before the replaced-binding counter it implies. Totals are exact once
// traffic quiesces.
type statCounters statFields[atomic.Int64]

// snapshot loads every live counter.
func (c *statCounters) snapshot() (s Stats) {
	c.each(&s, func(live *atomic.Int64, v *int64) { *v = live.Load() })
	return s
}

// restore overwrites the live counters from a persisted snapshot,
// storing only those whose value differs: a rig rewinds every counter
// before each experiment, and few of them moved.
func (c *statCounters) restore(s Stats) {
	c.each(&s, func(live *atomic.Int64, v *int64) {
		if live.Load() != *v {
			live.Store(*v)
		}
	})
}

// each pairs every live counter with the same counter in s: the two are
// instances of one statFields, so field i is the same counter in both.
func (c *statCounters) each(s *Stats, f func(live *atomic.Int64, v *int64)) {
	for _, off := range statOffsets {
		f((*atomic.Int64)(unsafe.Add(unsafe.Pointer(c), off.live)), (*int64)(unsafe.Add(unsafe.Pointer(s), off.val)))
	}
}

// statOffsets holds, per counter, its field's offset in statCounters and
// in Stats, read once from the types: a rig rewinds the counters before
// every experiment, and reflecting per call cost it about a microsecond.
var statOffsets = func() []struct{ live, val uintptr } {
	live, vals := reflect.TypeOf(statCounters{}), reflect.TypeOf(Stats{})
	offs := make([]struct{ live, val uintptr }, vals.NumField())
	for i := range offs {
		offs[i].live, offs[i].val = live.Field(i).Offset, vals.Field(i).Offset
	}
	return offs
}()

// Stats returns a snapshot of the service's activity counters.
func (s *Service) Stats() Stats {
	return s.stats.snapshot()
}

// countOutcome bumps ok on nil error and fail otherwise.
func (s *Service) countOutcome(err error, ok, fail *atomic.Int64) {
	if err == nil {
		ok.Add(1)
		return
	}
	fail.Add(1)
}
