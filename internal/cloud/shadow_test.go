package cloud

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
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
			s := &shadow{deviceID: testDevice, machine: *machine, lastSeen: now.Add(-2 * ttl)}
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
	s := &shadow{deviceID: testDevice, machine: *machine}
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

// TestInboxesShedTheOldest: a bound user queueing commands and data for a
// device that never polls grows neither inbox past maxInbox — the oldest
// entries are shed — and the next heartbeat delivers the newest maxInbox
// of each, in order.
func TestInboxesShedTheOldest(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	const queued = maxInbox + 50
	for i := 0; i < queued; i++ {
		if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: victim, Data: protocol.UserData{Body: fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	resp := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if len(resp.Commands) != maxInbox || len(resp.UserData) != maxInbox {
		t.Fatalf("heartbeat delivered %d commands and %d data, want %d of each", len(resp.Commands), len(resp.UserData), maxInbox)
	}
	for i := range resp.Commands {
		want := fmt.Sprint(queued - maxInbox + i)
		if resp.Commands[i].ID != want || resp.UserData[i].Body != want {
			t.Fatalf("entry %d is command %q and data %q, want %q", i, resp.Commands[i].ID, resp.UserData[i].Body, want)
		}
	}
}
