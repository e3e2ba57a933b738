package modelcheck

import "github.com/iotbind/iotbind/internal/core"

// The reference below is the search Check and CheckDelegation ran before
// their traces were chosen depth first: a reachable set and a parent map
// side by side, one frontier slice per level, and a whole trace rebuilt
// for every bad state to keep the shortest. It stays as the oracle the
// exported wrappers at the bottom hand to the equivalence tests. (Check
// used to break length ties by map order, so two runs could name
// different one-move counterexamples; the reference breaks them
// lexicographically, as CheckDelegation always did — every trace it
// returns is one the old Check could have.)

type refLink[S comparable] struct {
	prev S
	move Move
	root bool
}

type refSpace[S comparable] struct {
	reachable map[S]bool
	parents   map[S]refLink[S]
}

func refExplore[S comparable](start S, successors func(S, []edge[S]) []edge[S]) refSpace[S] {
	sp := refSpace[S]{map[S]bool{start: true}, map[S]refLink[S]{start: {root: true}}}
	frontier := []S{start}
	for len(frontier) > 0 {
		var next []S
		for _, st := range frontier {
			for _, succ := range successors(st, nil) {
				if sp.reachable[succ.to] {
					continue
				}
				sp.reachable[succ.to] = true
				sp.parents[succ.to] = refLink[S]{prev: st, move: succ.move}
				next = append(next, succ.to)
			}
		}
		frontier = next
	}
	return sp
}

func (sp refSpace[S]) traceTo(st S) []Move {
	var rev []Move
	for {
		link, ok := sp.parents[st]
		if !ok || link.root {
			break
		}
		rev = append(rev, link.move)
		st = link.prev
	}
	out := make([]Move, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func (sp refSpace[S]) shortest(bad func(S) bool, suffix ...Move) []Move {
	var best []Move
	for st := range sp.reachable {
		if !bad(st) {
			continue
		}
		cex := append(sp.traceTo(st), suffix...)
		if best == nil || len(cex) < len(best) || (len(cex) == len(best) && movesLess(cex, best)) {
			best = cex
		}
	}
	return best
}

// ReferenceCheck is Check on the reference search.
func ReferenceCheck(design core.DesignSpec) []Result {
	sys := newSystem(design)
	steady := refExplore(sys.initial(), sys.successors)
	factory := refExplore(state{bound: nobody, deviceHasToken: true, deviceHasNonce: true}, sys.successors)
	var results []Result
	for _, prop := range AllProperties() {
		sp, bad, suffix := steady, func(st state) bool { return sys.violates(prop, st) }, []Move(nil)
		if prop == PropVictimCanBind {
			sp, suffix = factory, []Move{MoveVictimSetup}
			bad = func(st state) bool {
				_, lockedOut := sys.applySetup(st)
				return lockedOut
			}
		}
		cex := sp.shortest(bad, suffix...)
		results = append(results, Result{prop, cex == nil, cex, len(sp.reachable)})
	}
	return results
}

// ReferenceCheckDelegation is CheckDelegation on the reference search.
func ReferenceCheckDelegation(design core.DesignSpec) []DelegationResult {
	sys := &dsystem{d: design}
	sp := refExplore(dstate{}, sys.successors)
	var results []DelegationResult
	for _, a := range AllDelegationAttacks() {
		trace := sp.shortest(func(st dstate) bool { return sys.realizes(a, st) })
		results = append(results, DelegationResult{a, trace != nil, trace, len(sp.reachable)})
	}
	return results
}
