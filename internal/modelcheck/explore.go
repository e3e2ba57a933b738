package modelcheck

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
)

// packed is a model state that numbers itself below 1<<keyBits, so the
// explorer keeps the reachable set as a bitset on its stack.
type packed interface {
	comparable
	key() uint16
}

const (
	keyBits   = 13  // the delegation sub-model's two 3-bit scopes and seven flags
	maxStates = 256 // the main model has 144 states, the delegation sub-model reaches ≤ 145
	maxEdges  = 9   // the most moves either model enables in one state
)

// edges is the moves a model enables in one state, in a fixed order. A
// model returns it by value, so enumerating a state's moves allocates
// nothing.
type edges[S any] struct {
	n    int
	list [maxEdges]struct {
		move core.Move
		to   S
	}
}

func (es *edges[S]) add(move core.Move, to S) {
	es.list[es.n].move, es.list[es.n].to = move, to
	es.n++
}

// link records how the search first reached a state: its predecessor's
// position in the search order, the move, and how deep.
type link struct {
	prev, depth uint16
	move        core.Move
}

// space is a model's reachable set, held entirely in the struct. A caller
// fills in next, the model's successor relation, then calls explore.
type space[S packed] struct {
	next func(S) edges[S]
	// order lists the first n reachable states as breadth-first search
	// met them: depth never decreases along it, so the first state with a
	// property is a shallowest one. links[i] is how order[i] was reached.
	n     int
	order [maxStates]S
	links [maxStates]link
	seen  [1 << keyBits / 64]uint64
}

// explore runs breadth-first search from start to a fixpoint. The
// successor order is fixed, so the links — and every trace read off them —
// are deterministic for a given design. It panics, naming the model,
// rather than outgrow maxStates.
func (sp *space[S]) explore(model string, start S) {
	sp.order[0], sp.n = start, 1
	sp.seen[start.key()/64] = 1 << (start.key() % 64)
	for head := 0; head < sp.n; head++ {
		es := sp.next(sp.order[head])
		for _, e := range es.list[:es.n] {
			k := e.to.key()
			if sp.seen[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			if sp.n == maxStates {
				panic(fmt.Sprintf("modelcheck: the %s model reaches more than %d states", model, maxStates))
			}
			sp.seen[k/64] |= 1 << (k % 64)
			sp.order[sp.n], sp.links[sp.n] = e.to, link{prev: uint16(head), depth: sp.links[head].depth + 1, move: e.move}
			sp.n++
		}
	}
}

// shortest returns the moves leading to a bad state, followed by suffix,
// or nil when no reachable state is bad. The shortest trace wins and the
// lexicographic order of the moves' names breaks length ties, so the
// verdict's trace is a function of the design alone. Candidates are
// compared in place; only the winner's trace is built.
func (sp *space[S]) shortest(bad func(S) bool, suffix ...core.Move) []core.Move {
	best := -1
	for p := 0; p < sp.n; p++ {
		if !bad(sp.order[p]) {
			continue
		}
		if best >= 0 && sp.links[p].depth > sp.links[best].depth {
			break // no later state is shallower
		}
		if best < 0 || sp.less(p, best) {
			best = p
		}
	}
	if best < 0 {
		return nil
	}
	depth := int(sp.links[best].depth)
	out := make([]core.Move, depth+len(suffix))
	copy(out[depth:], suffix)
	for i, p := depth-1, best; i >= 0; i, p = i-1, int(sp.links[p].prev) {
		out[i] = sp.links[p].move
	}
	return out
}

// less reports whether the trace to p sorts before the equally deep trace
// to q, comparing moves by name. Walking both back until they meet, the
// last difference seen is the first in trace order.
func (sp *space[S]) less(p, q int) bool {
	less := false
	for p != q {
		if a, b := sp.links[p].move, sp.links[q].move; a != b {
			less = a.String() < b.String()
		}
		p, q = int(sp.links[p].prev), int(sp.links[q].prev)
	}
	return less
}

// bit is a flag's contribution to a state's key, before its shift.
func bit(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
