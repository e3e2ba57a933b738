package testbed

import (
	"testing"
)

// TestRunClusterLoadKillover is the issue's acceptance scenario: three
// nodes, two mid-run primary kills, ack-after-replicate — the merged
// final state must be byte-identical to the single-node reference and
// no acknowledged operation may be lost.
func TestRunClusterLoadKillover(t *testing.T) {
	res, err := RunClusterLoad(ClusterLoadConfig{
		Dir:               t.TempDir(),
		Nodes:             3,
		Devices:           12,
		Heartbeats:        8,
		ReadingEvery:      3,
		Workers:           4,
		Kills:             2,
		AckAfterReplicate: true,
	})
	if err != nil {
		t.Fatalf("RunClusterLoad: %v", err)
	}
	if !res.StateVerified {
		t.Fatal("state compare did not run")
	}
	if res.MaxLostAcked != 0 {
		t.Fatalf("lost %d acked operations under ack-after-replicate", res.MaxLostAcked)
	}
	if res.Kills != 2 || res.Promotions != 2 {
		t.Fatalf("kills/promotions = %d/%d, want 2/2", res.Kills, res.Promotions)
	}
	wantMsgs := 12 * 8 // heartbeats
	if res.Messages != wantMsgs {
		t.Fatalf("Messages = %d, want %d", res.Messages, wantMsgs)
	}
	if res.Binds != 12 {
		t.Fatalf("Binds = %d, want 12", res.Binds)
	}
}

// TestRunClusterLoadNoKills exercises the steady-state path: every node
// survives, and the merged compare must still hold (routing alone must
// not perturb state).
func TestRunClusterLoadNoKills(t *testing.T) {
	res, err := RunClusterLoad(ClusterLoadConfig{
		Dir:               t.TempDir(),
		Nodes:             3,
		Devices:           9,
		Heartbeats:        4,
		Workers:           3,
		Kills:             0,
		AckAfterReplicate: true,
	})
	if err != nil {
		t.Fatalf("RunClusterLoad: %v", err)
	}
	if !res.StateVerified || res.Kills != 0 {
		t.Fatalf("StateVerified=%v Kills=%d, want true/0", res.StateVerified, res.Kills)
	}
}

// TestRunClusterLoadAsyncShipping documents the contrast case the
// ack-after-replicate knob exists for: with asynchronous shipping a kill
// may strand acknowledged operations on the dead primary's disk, so the
// run reports the loss instead of verifying state.
func TestRunClusterLoadAsyncShipping(t *testing.T) {
	res, err := RunClusterLoad(ClusterLoadConfig{
		Dir:               t.TempDir(),
		Nodes:             3,
		Devices:           9,
		Heartbeats:        6,
		Workers:           3,
		Kills:             1,
		AckAfterReplicate: false,
	})
	if err != nil {
		t.Fatalf("RunClusterLoad: %v", err)
	}
	if res.StateVerified {
		t.Fatal("async run must not claim a verified state")
	}
	if len(res.LostAcked) != 1 {
		t.Fatalf("LostAcked = %v, want one entry", res.LostAcked)
	}
	// The killed node had served register+bind+heartbeats for its slice
	// with nothing shipping; unless its slice was empty, loss is real.
	if res.LostAcked[0] == 0 {
		t.Log("async kill lost nothing (killed node owned no devices); tolerated")
	}
}

func TestRunClusterLoadValidation(t *testing.T) {
	if _, err := RunClusterLoad(ClusterLoadConfig{}); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := RunClusterLoad(ClusterLoadConfig{Dir: t.TempDir(), Nodes: 2, Kills: 3}); err == nil {
		t.Fatal("Kills > Nodes accepted")
	}
}
