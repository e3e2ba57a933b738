package main

import (
	"bytes"

	"github.com/iotbind/iotbind/internal/cloud"
)

// stats is the primary's activity counters.
func (st *stack) stats() cloud.Stats { return st.node.Primary().Service().Stats() }

// gate is the correctness check every run ends with. It records each
// violation on the result; a run with any violation is not correct.
func (s *session) gate(r *runResult) {
	for _, l := range s.lanes {
		if l.failed > 0 {
			r.violate("%d operations failed, first: %v", l.failed, l.firstErr)
		}
	}
	if s.st == nil {
		return // attack_matrix: a mismatched cell fails the op itself
	}
	for i, l := range s.lanes {
		if err := settle(l, &s.issued); err != nil {
			r.violate("lane %d: settle: %v", i, err)
		}
	}
	s.gateStats(r)
	s.st.gateState(r, !s.w.bound)
}

// gateStats requires the cloud to have accepted exactly the requests the
// lanes issued, kind for kind, and refused or deduplicated none.
func (s *session) gateStats(r *runResult) {
	now, was := s.st.stats(), s.base
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"StatusAccepted", now.StatusAccepted - was.StatusAccepted, int64(s.issued[opStatus])},
		{"BindsAccepted", now.BindsAccepted - was.BindsAccepted, int64(s.issued[opBind])},
		{"UnbindsAccepted", now.UnbindsAccepted - was.UnbindsAccepted, int64(s.issued[opUnbind])},
		{"ControlsQueued", now.ControlsQueued - was.ControlsQueued, int64(s.issued[opControl])},
		{"DelegationsGranted", now.DelegationsGranted - was.DelegationsGranted, int64(s.issued[opDelegate])},
		{"DelegationsRevoked", now.DelegationsRevoked - was.DelegationsRevoked, int64(s.issued[opRevoke])},
		{"StatusRejected", now.StatusRejected - was.StatusRejected, 0},
		{"StatusDeduplicated", now.StatusDeduplicated - was.StatusDeduplicated, 0},
		{"BindsRejected", now.BindsRejected - was.BindsRejected, 0},
		{"BindsDeduplicated", now.BindsDeduplicated - was.BindsDeduplicated, 0},
		{"BindingsReplaced", now.BindingsReplaced - was.BindingsReplaced, 0},
		{"UnbindsRejected", now.UnbindsRejected - was.UnbindsRejected, 0},
		{"UnbindsDeduplicated", now.UnbindsDeduplicated - was.UnbindsDeduplicated, 0},
		{"ControlsRejected", now.ControlsRejected - was.ControlsRejected, 0},
		{"DelegationsRejected", now.DelegationsRejected - was.DelegationsRejected, 0},
		{"DelegationsDeduplicated", now.DelegationsDeduplicated - was.DelegationsDeduplicated, 0},
		{"LoginFailures", now.LoginFailures - was.LoginFailures, 0},
	} {
		if c.got != c.want {
			r.violate("cloud.Stats.%s grew by %d, the lanes issued %d", c.name, c.got, c.want)
		}
	}
}

// gateState requires the replica to hold everything the primary
// acknowledged: no replication lag, and byte-equal snapshots (activity
// counters and snapshot time aside — bare heartbeats are counted on the
// primary but never logged). With wantUnbound, every device must have
// ended unbound with no live grant.
func (st *stack) gateState(r *runResult, wantUnbound bool) {
	if lag := st.node.ReplicationLag(); lag != 0 {
		r.violate("replication lag %d after the run", lag)
	}
	primary, replica := st.node.Primary().Snapshot(), st.node.Replica().Snapshot()
	var enc [2]bytes.Buffer
	for i, snap := range []cloud.Snapshot{primary, replica} {
		snap.Stats = cloud.Stats{}
		snap.TakenAt = epoch
		if err := cloud.EncodeSnapshot(&enc[i], snap); err != nil {
			r.violate("encode snapshot: %v", err)
			return
		}
	}
	if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
		r.violate("primary and replica snapshots differ (%d vs %d bytes)", enc[0].Len(), enc[1].Len())
	}
	if len(primary.Shadows) != len(st.ids) {
		r.violate("primary holds %d shadows for a fleet of %d", len(primary.Shadows), len(st.ids))
	}
	for _, sh := range primary.Shadows {
		if bound := sh.BoundUser != ""; bound == wantUnbound || (wantUnbound && len(sh.Grants) != 0) {
			r.violate("device %s ended bound=%v with %d grants", sh.DeviceID, bound, len(sh.Grants))
			break
		}
	}
}
