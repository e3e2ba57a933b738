package core

import (
	"testing"
	"testing/quick"
)

func TestStateOf(t *testing.T) {
	tests := []struct {
		online, bound bool
		want          ShadowState
	}{
		{false, false, StateInitial},
		{true, false, StateOnline},
		{true, true, StateControl},
		{false, true, StateBound},
	}
	for _, tt := range tests {
		if got := stateOf(tt.online, tt.bound); got != tt.want {
			t.Errorf("stateOf(%v, %v) = %v, want %v", tt.online, tt.bound, got, tt.want)
		}
	}
}

func TestStatePredicates(t *testing.T) {
	tests := []struct {
		state  ShadowState
		online bool
		bound  bool
	}{
		{StateInitial, false, false},
		{StateOnline, true, false},
		{StateControl, true, true},
		{StateBound, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.state.String(), func(t *testing.T) {
			if got := tt.state.Online(); got != tt.online {
				t.Errorf("Online() = %v, want %v", got, tt.online)
			}
			if got := tt.state.BoundToUser(); got != tt.bound {
				t.Errorf("BoundToUser() = %v, want %v", got, tt.bound)
			}
			if !tt.state.Valid() {
				t.Errorf("Valid() = false for defined state %v", tt.state)
			}
		})
	}
}

func TestStateOfRoundTrip(t *testing.T) {
	// stateOf is the inverse of the (Online, BoundToUser) projection.
	f := func(online, bound bool) bool {
		s := stateOf(online, bound)
		return s.Online() == online && s.BoundToUser() == bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidStates(t *testing.T) {
	for _, s := range []ShadowState{0, 5, -1, 100} {
		if s.Valid() {
			t.Errorf("Valid() = true for undefined state %d", int(s))
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[ShadowState]string{
		StateInitial: "initial",
		StateOnline:  "online",
		StateControl: "control",
		StateBound:   "bound",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(s), got, name)
		}
	}
	if got := ShadowState(42).String(); got != "ShadowState(42)" {
		t.Errorf("undefined state String() = %q", got)
	}
}

func TestAllStatesCoversEveryState(t *testing.T) {
	states := AllStates()
	if len(states) != 4 {
		t.Fatalf("AllStates() has %d entries, want 4", len(states))
	}
	seen := make(map[ShadowState]bool, len(states))
	for _, s := range states {
		if !s.Valid() {
			t.Errorf("AllStates() contains invalid state %v", s)
		}
		if seen[s] {
			t.Errorf("AllStates() contains duplicate state %v", s)
		}
		seen[s] = true
	}
}
