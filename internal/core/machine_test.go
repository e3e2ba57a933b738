package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestStateMachineMatchesFigure2 verifies that the transition function
// reproduces exactly the six numbered edges of Figure 2.
func TestStateMachineMatchesFigure2(t *testing.T) {
	for _, edge := range Figure2Edges() {
		got, err := Next(edge.From, edge.Event)
		if err != nil {
			t.Errorf("Next(%v, %v): unexpected error %v", edge.From, edge.Event, err)
			continue
		}
		if got != edge.To {
			t.Errorf("Next(%v, %v) = %v, want %v", edge.From, edge.Event, got, edge.To)
		}
	}
}

func TestNextRejectsInvalidTransitions(t *testing.T) {
	tests := []struct {
		state ShadowState
		event Event
	}{
		{StateInitial, EventUnbind},       // nothing to revoke
		{StateOnline, EventUnbind},        // nothing to revoke
		{StateControl, EventBind},         // already bound
		{StateBound, EventBind},           // already bound
		{StateInitial, EventStatusExpire}, // already offline
		{StateBound, EventStatusExpire},   // already offline
	}
	for _, tt := range tests {
		if _, err := Next(tt.state, tt.event); !errors.Is(err, errInvalidTransition) {
			t.Errorf("Next(%v, %v) error = %v, want errInvalidTransition", tt.state, tt.event, err)
		}
	}
}

func TestNextHeartbeatIsSelfLoop(t *testing.T) {
	for _, s := range []ShadowState{StateOnline, StateControl} {
		got, err := Next(s, EventStatus)
		if err != nil {
			t.Fatalf("Next(%v, status): %v", s, err)
		}
		if got != s {
			t.Errorf("heartbeat in %v moved to %v, want self-loop", s, got)
		}
	}
}

func TestNextStatusExpire(t *testing.T) {
	tests := []struct {
		from, to ShadowState
	}{
		{StateOnline, StateInitial},
		{StateControl, StateBound},
	}
	for _, tt := range tests {
		got, err := Next(tt.from, EventStatusExpire)
		if err != nil {
			t.Fatalf("Next(%v, expire): %v", tt.from, err)
		}
		if got != tt.to {
			t.Errorf("Next(%v, expire) = %v, want %v", tt.from, got, tt.to)
		}
	}
}

func TestNextRejectsInvalidInputs(t *testing.T) {
	if _, err := Next(ShadowState(0), EventStatus); !errors.Is(err, errInvalidTransition) {
		t.Errorf("invalid state error = %v, want errInvalidTransition", err)
	}
	if _, err := Next(StateInitial, Event(99)); !errors.Is(err, errInvalidTransition) {
		t.Errorf("invalid event error = %v, want errInvalidTransition", err)
	}
}

// TestTransitionsPreserveAxes checks the structural invariant of the model:
// status events only move the online axis and bind/unbind events only move
// the bound axis.
func TestTransitionsPreserveAxes(t *testing.T) {
	for _, s := range AllStates() {
		for _, e := range allEvents() {
			next, err := Next(s, e)
			if err != nil {
				continue
			}
			switch e {
			case EventStatus, EventStatusExpire:
				if next.BoundToUser() != s.BoundToUser() {
					t.Errorf("%v on %v changed bound axis: %v -> %v", e, s, s, next)
				}
			case EventBind, EventUnbind:
				if next.Online() != s.Online() {
					t.Errorf("%v on %v changed online axis: %v -> %v", e, s, s, next)
				}
			}
		}
	}
}

func TestTransitionTableIsComplete(t *testing.T) {
	table := TransitionTable()
	// 4 states x 4 events = 16 pairs; invalid ones are: unbind in 2
	// unbound states, bind in 2 bound states, expire in 2 offline states.
	const want = 16 - 6
	if len(table) != want {
		t.Fatalf("TransitionTable() has %d edges, want %d", len(table), want)
	}
	for _, tr := range table {
		next, err := Next(tr.From, tr.Event)
		if err != nil || next != tr.To {
			t.Errorf("table edge %v disagrees with Next (got %v, %v)", tr, next, err)
		}
	}
}

func TestFigure2EdgesAreSubsetOfTable(t *testing.T) {
	if n := len(Figure2Edges()); n != 6 {
		t.Fatalf("Figure2Edges() has %d edges, want the six numbered edges", n)
	}
	valid := make(map[Transition]bool)
	for _, tr := range TransitionTable() {
		valid[tr] = true
	}
	for _, edge := range Figure2Edges() {
		if !valid[edge] {
			t.Errorf("Figure 2 edge %v not in transition table", edge)
		}
	}
}

func TestMachineApplyAndTrace(t *testing.T) {
	m := NewMachine()
	steps := []struct {
		event Event
		want  ShadowState
	}{
		{EventStatus, StateOnline},
		{EventBind, StateControl},
		{EventStatusExpire, StateBound},
		{EventStatus, StateControl},
		{EventUnbind, StateOnline},
		{EventStatusExpire, StateInitial},
	}
	for i, st := range steps {
		got, err := m.Apply(st.event)
		if err != nil {
			t.Fatalf("step %d (%v): %v", i, st.event, err)
		}
		if got != st.want {
			t.Fatalf("step %d (%v) = %v, want %v", i, st.event, got, st.want)
		}
	}
	trace := m.Trace()
	if len(trace) != len(steps) {
		t.Fatalf("trace has %d edges, want %d", len(trace), len(steps))
	}
	if trace[0].From != StateInitial || trace[len(trace)-1].To != StateInitial {
		t.Errorf("trace endpoints = %v .. %v, want initial .. initial", trace[0], trace[len(trace)-1])
	}
}

func TestMachineInvalidEventKeepsState(t *testing.T) {
	m := NewMachine()
	if _, err := m.Apply(EventUnbind); !errors.Is(err, errInvalidTransition) {
		t.Fatalf("Apply(unbind) error = %v, want errInvalidTransition", err)
	}
	if m.State() != StateInitial {
		t.Errorf("state after failed event = %v, want initial", m.State())
	}
	if len(m.Trace()) != 0 {
		t.Errorf("trace after failed event has %d edges, want 0", len(m.Trace()))
	}
}

func TestMachineReset(t *testing.T) {
	m := NewMachine()
	if _, err := m.Apply(EventStatus); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.State() != StateInitial || len(m.Trace()) != 0 {
		t.Errorf("after Reset: state=%v trace=%d, want initial, 0", m.State(), len(m.Trace()))
	}
}

// TestMachineTraceMatchesReference holds the ring to the slice it
// replaced: random events, enough to wrap the ring several times, keep
// after every event exactly the last MaxTrace edges a growing slice
// records — on a new machine, on one from RestoreMachine, and after a
// Reset halfway through.
func TestMachineTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	events := allEvents()
	for round := 0; round < 40; round++ {
		m := NewMachine()
		if round%2 == 1 {
			var err error
			if m, err = RestoreMachine(AllStates()[rng.Intn(len(AllStates()))]); err != nil {
				t.Fatal(err)
			}
		}
		var ref []Transition
		steps := 8*MaxTrace + rng.Intn(MaxTrace)
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				if len(ref) <= MaxTrace {
					t.Fatalf("round %d took %d edges before Reset: the ring never wrapped", round, len(ref))
				}
				m.Reset()
				ref = nil
			}
			e := events[rng.Intn(len(events))]
			from := m.State()
			if to, err := m.Apply(e); err == nil {
				ref = append(ref, Transition{From: from, Event: e, To: to})
			}
			want := ref[max(0, len(ref)-MaxTrace):]
			if got := m.Trace(); !slices.Equal(got, want) {
				t.Fatalf("round %d, event %d: trace %v, want %v", round, i, got, want)
			}
		}
		if len(ref) <= MaxTrace {
			t.Fatalf("round %d took %d edges after Reset: the ring never wrapped", round, len(ref))
		}
	}
}

// TestMachineTraceDoesNotAlias: a returned trace is the caller's — writing
// to it leaves the machine's ring as it was.
func TestMachineTraceDoesNotAlias(t *testing.T) {
	m := NewMachine()
	for _, e := range []Event{EventStatus, EventBind} {
		if _, err := m.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	want := m.Trace()
	got := m.Trace()
	got[0], got[1] = Transition{}, Transition{}
	if again := m.Trace(); !slices.Equal(again, want) {
		t.Errorf("trace after writing to a returned copy = %v, want %v", again, want)
	}
}

// TestTraceValuesFitAByte: the ring packs each edge's states and event
// into one byte apiece, so every value must survive the round trip.
func TestTraceValuesFitAByte(t *testing.T) {
	for _, s := range AllStates() {
		if ShadowState(uint8(s)) != s {
			t.Errorf("state %v does not fit a byte", s)
		}
	}
	for _, e := range allEvents() {
		if Event(uint8(e)) != e {
			t.Errorf("event %v does not fit a byte", e)
		}
	}
}

// TestMachineStaysValidUnderRandomEvents is a property test: no sequence of
// events can drive the machine into an undefined state, and every accepted
// transition appears in the transition table.
func TestMachineStaysValidUnderRandomEvents(t *testing.T) {
	valid := make(map[Transition]bool)
	for _, tr := range TransitionTable() {
		valid[tr] = true
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMachine()
		events := allEvents()
		for i := 0; i < int(n); i++ {
			e := events[rng.Intn(len(events))]
			before := m.State()
			after, err := m.Apply(e)
			if err != nil {
				if after != before {
					return false // failed apply must not move
				}
				continue
			}
			if !after.Valid() {
				return false
			}
			if !valid[Transition{From: before, Event: e, To: after}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestControlReachability documents the two paths from initial to control
// described in Section III-B: bind-then-authenticate and
// authenticate-then-bind.
func TestControlReachability(t *testing.T) {
	paths := [][]Event{
		{EventBind, EventStatus}, // initial -> bound -> control
		{EventStatus, EventBind}, // initial -> online -> control
	}
	for i, path := range paths {
		m := NewMachine()
		for _, e := range path {
			if _, err := m.Apply(e); err != nil {
				t.Fatalf("path %d, event %v: %v", i, e, err)
			}
		}
		if m.State() != StateControl {
			t.Errorf("path %d ends in %v, want control", i, m.State())
		}
	}
}
