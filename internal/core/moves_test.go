package core

import "testing"

// TestVocabularyNames pins every move's and goal's names — the strings
// counterexamples, discovered attacks and goldens print — and holds them
// unique, so a name cannot drift or be spelled twice.
func TestVocabularyNames(t *testing.T) {
	moves := map[Move]string{
		MoveForgeRegister:         "forge-register",
		MoveForgeDataHeartbeat:    "forge-data-heartbeat",
		MoveForgeBind:             "forge-bind",
		MoveForgeUnbindUserToken:  "forge-unbind-usertoken",
		MoveForgeUnbindDevID:      "forge-unbind-devid",
		MoveForgeAnyUnbind:        "forge-any-unbind",
		MoveDeviceReregisters:     "device-reregisters",
		MoveVictimSetup:           "victim-setup",
		MoveParkSecret:            "park-secret",
		MoveOwnerDelegateFull:     "owner-delegates-guest-control",
		MoveOwnerDelegateReadOnly: "owner-delegates-guest-readonly",
		MoveGuestRedelegateCtl:    "guest-redelegates-control",
		MoveGuestRedelegateRead:   "guest-redelegates-read",
		MoveOwnerRevokeGuest:      "owner-revokes-guest",
		MoveGuestControlBegin:     "guest-control-verifies-token",
		MoveGuestControlLand:      "guest-control-lands",
		MoveSubguestControlToken:  "subguest-controls-with-token",
		MoveSubguestControlUser:   "subguest-controls-with-usertoken",
	}
	seen := make(map[string]bool)
	for m := Move(1); int(m) < len(moveNames); m++ {
		if want, ok := moves[m]; !ok || m.String() != want {
			t.Errorf("move %d is %q, want %q", int(m), m.String(), want)
		}
		if seen[m.String()] {
			t.Errorf("move name %q spelled twice", m.String())
		}
		seen[m.String()] = true
	}
	if len(seen) != len(moves) {
		t.Errorf("%d moves named, want %d", len(seen), len(moves))
	}
	if got := Move(0).String(); got != "Move(0)" {
		t.Errorf("the zero move prints %q", got)
	}

	goalNames := map[Goal][2]string{
		GoalHijack:     {"no-hijack", "hijack-device"},
		GoalDisconnect: {"binding-preserved", "disconnect-victim"},
		GoalStealData:  {"no-data-theft", "steal-user-data"},
		GoalInjectData: {"no-data-injection", "inject-fake-data"},
		GoalOccupy:     {"victim-can-bind", "occupy-binding"},

		GoalResidualControl: {"eviction-revokes-derived-grants", "keep-control-after-eviction"},
		GoalEscalate:        {"no-scope-escalation", "escalate-delegated-scope"},
		GoalStaleControl:    {"revocation-stops-inflight-control", "land-control-after-revocation"},
	}
	// AllGoals is the binding model's five; the delegation goals follow.
	all := AllGoals()
	if len(all) != 5 || len(goals) != len(goalNames)+1 {
		t.Errorf("AllGoals lists %d goals, the table %d; want 5 of %d", len(all), len(goals)-1, len(goalNames))
	}
	for i, g := range all {
		if g != Goal(i+1) {
			t.Errorf("AllGoals()[%d] is %v", i, g)
		}
	}
	clear(seen)
	for g := Goal(1); int(g) < len(goals); g++ {
		want := goalNames[g]
		if g.String() != want[0] || g.Objective() != want[1] {
			t.Errorf("goal %d is %q / %q, want %q / %q", int(g), g.String(), g.Objective(), want[0], want[1])
		}
		for _, name := range [...]string{g.String(), g.Objective()} {
			if seen[name] {
				t.Errorf("goal name %q spelled twice", name)
			}
			seen[name] = true
		}
	}
}
