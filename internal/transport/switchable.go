package transport

import "sync/atomic"

// Switchable is a Cloud whose backend can be replaced atomically while
// agents hold the wrapper. Crash-recovery harnesses use it to model a
// cloud restart under live traffic: agents (and their retry wrappers)
// keep one transport across the outage, the harness swaps the crashed
// instance for the recovered one, and in-flight redeliveries land on
// the new backend exactly as a reconnecting client's would.
type Switchable struct {
	Hopped
	cur atomic.Pointer[cloudBox]
}

// cloudBox wraps the interface value so it can live in an
// atomic.Pointer.
type cloudBox struct{ c Cloud }

// NewSwitchable returns a Switchable currently backed by c.
func NewSwitchable(c Cloud) *Switchable {
	s := &Switchable{}
	s.Hopped = NewHopped(switchHop{s})
	s.Swap(c)
	return s
}

// Swap atomically replaces the backend. Calls already dispatched to the
// old backend complete against it; every later call sees the new one.
func (s *Switchable) Swap(c Cloud) { s.cur.Store(&cloudBox{c: c}) }

// Current returns the live backend.
func (s *Switchable) Current() Cloud { return s.cur.Load().c }

// switchHop sends each call to whichever backend is live when it starts.
type switchHop struct{ s *Switchable }

func (h switchHop) Begin(Op, string) (Cloud, error) { return h.s.Current(), nil }
func (h switchHop) End(_ Op, err error) error       { return err }
