package cloud

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
)

// TestShadowMutatorsTakeFigure2Edges: each of the four shadow mutators,
// from every Figure 2 state, lands where core.Next says its event leads —
// or, where its guard skips the event, stays put. Nothing a mutator does
// can leave the shadow off the edge it claims to take.
func TestShadowMutatorsTakeFigure2Edges(t *testing.T) {
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	const ttl = time.Minute
	for _, m := range []struct {
		name   string
		event  core.Event
		mutate func(*shadow)
		// skips reports the states the mutator's guard leaves alone.
		skips func(core.ShadowState) bool
	}{
		{"refresh", core.EventStatusExpire,
			func(s *shadow) { s.refresh(now, ttl) },
			func(st core.ShadowState) bool { return !st.Online() }},
		{"markOnline", core.EventStatus,
			func(s *shadow) { s.markOnline(now) },
			core.ShadowState.Online},
		{"bind", core.EventBind,
			func(s *shadow) { s.bind("owner@example.com") },
			core.ShadowState.BoundToUser},
		{"unbind", core.EventUnbind,
			func(s *shadow) { s.unbind() },
			func(st core.ShadowState) bool { return !st.BoundToUser() }},
	} {
		for _, from := range core.AllStates() {
			machine, err := core.RestoreMachine(from)
			if err != nil {
				t.Fatal(err)
			}
			// lastSeen a whole TTL before now: refresh finds it expired.
			s := &shadow{deviceID: testDevice, machine: machine, lastSeen: now.Add(-2 * ttl)}
			want := from
			if !m.skips(from) {
				if want, err = core.Next(from, m.event); err != nil {
					t.Fatalf("%s from %v: the guard lets through %v, which Figure 2 refuses: %v", m.name, from, m.event, err)
				}
			}
			m.mutate(s)
			if got := s.state(); got != want {
				t.Errorf("%s from %v: shadow in %v, want %v", m.name, from, got, want)
			}
		}
	}
}

// TestShadowApplyPanicsOnRefusedEdge: a transition Figure 2 refuses —
// only reachable through a broken guard — panics, naming the shadow's
// state and the event, instead of being dropped.
func TestShadowApplyPanicsOnRefusedEdge(t *testing.T) {
	machine, err := core.RestoreMachine(core.StateControl)
	if err != nil {
		t.Fatal(err)
	}
	s := &shadow{deviceID: testDevice, machine: machine}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{testDevice, core.StateControl.String(), core.EventBind.String()} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
		if s.state() != core.StateControl {
			t.Fatalf("refused edge moved the shadow to %v", s.state())
		}
	}()
	s.apply(core.EventBind)
	t.Fatal("bind on a bound shadow did not panic")
}
