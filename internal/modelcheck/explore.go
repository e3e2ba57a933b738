package modelcheck

// edge is one enabled transition of a model whose states are S.
type edge[S comparable] struct {
	move Move
	to   S
}

// maxEdges is the most moves either model enables in one state (the
// delegation sub-model's nine). successors appends into a buffer of this
// capacity that the explorer owns, so enumerating a state's moves
// allocates nothing; a model that outgrew it would spill, not break.
const maxEdges = 9

// link records how the search first reached a state, and how deep.
type link[S comparable] struct {
	prev  S
	move  Move
	depth int
}

// space is a model's reachable set.
type space[S comparable] struct {
	// order lists the reachable states as breadth-first search met them:
	// depth never decreases along it, so the first state with a property
	// is a shallowest one.
	order []S
	links map[S]link[S]
}

// explore runs breadth-first search from start to a fixpoint. The
// successor order is fixed, so the links — and every trace read off them —
// are deterministic for a given design.
func explore[S comparable](start S, successors func(S, []edge[S]) []edge[S]) space[S] {
	sp := space[S]{order: []S{start}, links: map[S]link[S]{start: {}}}
	var buf [maxEdges]edge[S]
	for head := 0; head < len(sp.order); head++ {
		st := sp.order[head]
		depth := sp.links[st].depth + 1
		for _, e := range successors(st, buf[:0]) {
			if _, seen := sp.links[e.to]; seen {
				continue
			}
			sp.links[e.to] = link[S]{prev: st, move: e.move, depth: depth}
			sp.order = append(sp.order, e.to)
		}
	}
	return sp
}

// shortest returns the moves leading to a bad state, followed by suffix,
// or nil when no reachable state is bad. The shortest trace wins and
// lexicographic order breaks length ties, so the verdict's trace is a
// function of the design alone. Only a state as shallow as the incumbent
// has its trace built, back to front in a slice of exactly its length.
func (sp space[S]) shortest(bad func(S) bool, suffix ...Move) []Move {
	var best, cand []Move
	for _, st := range sp.order {
		if !bad(st) {
			continue
		}
		depth := sp.links[st].depth
		if best == nil {
			best = make([]Move, depth+len(suffix))
			copy(best[depth:], suffix)
			sp.trace(st, best[:depth])
			continue
		}
		if depth+len(suffix) > len(best) {
			break // no later state is shallower
		}
		if cand == nil {
			cand = make([]Move, len(best))
			copy(cand[depth:], suffix)
		}
		sp.trace(st, cand[:depth])
		if movesLess(cand, best) {
			best, cand = cand, best
		}
	}
	return best
}

// trace fills out, whose length is st's depth, with the moves from the
// initial state to st.
func (sp space[S]) trace(st S, out []Move) {
	for i := len(out) - 1; i >= 0; i-- {
		l := sp.links[st]
		out[i] = l.move
		st = l.prev
	}
}

// movesLess orders equal-length move sequences lexicographically.
func movesLess(a, b []Move) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
