package core

import (
	"errors"
	"fmt"
)

// Event is an accepted primitive action applied to a device shadow. Events
// model what the cloud does *after* its policy checks accept a message; the
// checks themselves live in the cloud implementation and in the analysis
// package.
type Event int

// Shadow events.
const (
	// EventStatus is an accepted status (registration or heartbeat)
	// message: the device becomes or stays online.
	EventStatus Event = iota + 1
	// EventStatusExpire is the heartbeat deadline passing with no status
	// message: the device becomes offline.
	EventStatusExpire
	// EventBind is an accepted binding creation.
	EventBind
	// EventUnbind is an accepted binding revocation.
	EventUnbind
)

// allEvents lists every shadow event in declaration order.
func allEvents() []Event {
	return []Event{EventStatus, EventStatusExpire, EventBind, EventUnbind}
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case EventStatus:
		return "status"
	case EventStatusExpire:
		return "status-expire"
	case EventBind:
		return "bind"
	case EventUnbind:
		return "unbind"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// errInvalidTransition reports an event that is not meaningful in the
// current state (e.g. unbinding an unbound device).
var errInvalidTransition = errors.New("core: invalid shadow transition")

// Next returns the state that follows from applying event e in state s.
// The mapping is exactly Figure 2 of the paper: status messages flip the
// online axis, bind/unbind flip the bound axis. Events that do not apply in
// s (EventBind in a bound state, EventUnbind in an unbound state, and
// EventStatusExpire while already offline) return errInvalidTransition;
// EventStatus in an online state is a heartbeat and keeps the state.
func Next(s ShadowState, e Event) (ShadowState, error) {
	if !s.Valid() {
		return 0, fmt.Errorf("%w: invalid state %v", errInvalidTransition, s)
	}
	switch e {
	case EventStatus:
		return stateOf(true, s.BoundToUser()), nil
	case EventStatusExpire:
		if !s.Online() {
			return 0, fmt.Errorf("%w: %v is already offline", errInvalidTransition, s)
		}
		return stateOf(false, s.BoundToUser()), nil
	case EventBind:
		if s.BoundToUser() {
			return 0, fmt.Errorf("%w: %v is already bound", errInvalidTransition, s)
		}
		return stateOf(s.Online(), true), nil
	case EventUnbind:
		if !s.BoundToUser() {
			return 0, fmt.Errorf("%w: %v is not bound", errInvalidTransition, s)
		}
		return stateOf(s.Online(), false), nil
	default:
		return 0, fmt.Errorf("%w: unknown event %v", errInvalidTransition, e)
	}
}

// Transition is one labelled edge of the Figure 2 state machine.
type Transition struct {
	From  ShadowState
	Event Event
	To    ShadowState
}

// String renders the edge as "from --event--> to".
func (t Transition) String() string {
	return fmt.Sprintf("%v --%v--> %v", t.From, t.Event, t.To)
}

// TransitionTable enumerates every valid (state, event) pair with its
// successor, covering the six numbered edges of Figure 2 plus heartbeat
// self-loops and the offline-expiry edges.
func TransitionTable() []Transition {
	var table []Transition
	for _, s := range AllStates() {
		for _, e := range allEvents() {
			next, err := Next(s, e)
			if err != nil {
				continue
			}
			table = append(table, Transition{From: s, Event: e, To: next})
		}
	}
	return table
}

// Figure2Edges returns only the six numbered edges of Figure 2 (the edges
// that change state), in the paper's numbering order:
//
//	① initial --status--> online      (device authentication)
//	② initial --bind--> bound         (binding creation before device online)
//	③ bound --unbind--> initial       (binding revocation while offline)
//	④ online --bind--> control        (binding creation)
//	⑤ control --unbind--> online      (binding revocation)
//	⑥ bound --status--> control       (device authentication)
func Figure2Edges() []Transition {
	return []Transition{
		{From: StateInitial, Event: EventStatus, To: StateOnline},
		{From: StateInitial, Event: EventBind, To: StateBound},
		{From: StateBound, Event: EventUnbind, To: StateInitial},
		{From: StateOnline, Event: EventBind, To: StateControl},
		{From: StateControl, Event: EventUnbind, To: StateOnline},
		{From: StateBound, Event: EventStatus, To: StateControl},
	}
}

// MaxTrace is how many of its most recent transitions a Machine keeps.
const MaxTrace = 64

// Machine is a mutable device shadow that applies events and records the
// last MaxTrace transitions (a device may flap forever) in an inline ring,
// so applying an event never allocates. The zero value is not usable;
// create one with NewMachine. Machine is not safe for concurrent use; the
// cloud serialises access per device.
type Machine struct {
	state   ShadowState
	ring    [MaxTrace][3]uint8 // packed (from, event, to); the newest n end before next
	next, n uint8
}

// NewMachine returns a shadow machine in the initial state.
func NewMachine() *Machine {
	return &Machine{state: StateInitial}
}

// RestoreMachine returns a machine positioned at a previously persisted
// state. The trace of the original machine is not restored.
func RestoreMachine(state ShadowState) (*Machine, error) {
	if !state.Valid() {
		return nil, fmt.Errorf("%w: cannot restore state %v", errInvalidTransition, state)
	}
	return &Machine{state: state}, nil
}

// State returns the current shadow state.
func (m *Machine) State() ShadowState { return m.state }

// Apply transitions the machine on event e, recording the edge. It returns
// the new state, or errInvalidTransition (leaving the state unchanged) when
// the event does not apply.
func (m *Machine) Apply(e Event) (ShadowState, error) {
	next, err := Next(m.state, e)
	if err != nil {
		return m.state, err
	}
	m.ring[m.next] = [3]uint8{uint8(m.state), uint8(e), uint8(next)}
	m.next, m.n = (m.next+1)%MaxTrace, min(m.n+1, MaxTrace)
	m.state = next
	return next, nil
}

// Trace returns a copy of the transitions kept, oldest first.
func (m *Machine) Trace() []Transition {
	out := make([]Transition, m.n)
	oldest := int(m.next) + MaxTrace - int(m.n)
	for i := range out {
		edge := &m.ring[(oldest+i)%MaxTrace]
		out[i] = Transition{From: ShadowState(edge[0]), Event: Event(edge[1]), To: ShadowState(edge[2])}
	}
	return out
}

// Reset returns the machine to the initial state and clears the trace.
func (m *Machine) Reset() {
	m.state, m.next, m.n = StateInitial, 0, 0
}
