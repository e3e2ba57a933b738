// Package delegation implements the per-device delegation lattice: a
// forest of scoped, expiring, depth-limited grants rooted at the bound
// owner. Grants are first-class records — Grant{Grantor, Grantee,
// Scopes, Expiry, Depth} — supporting re-delegation chains (owner →
// guest → sub-guest, platform-style delegation) and cascade revocation
// (revoking a grant severs every grant derived from it in one step).
//
// The lattice itself carries no lock: it lives inside a device shadow
// and is guarded by the shadow's mutex, which is what makes use-time
// chain verification atomic with respect to revocation — a control
// attempt racing a revocation observes either the whole grant chain or
// none of it.
//
// Each grantee holds at most one grant per device. Granting to an
// account that already holds a grant replaces the old grant and severs
// the subtree derived from it: the old derivations were justified by an
// authority that no longer exists, and keeping them would let a
// replacement silently widen (or orphan) a chain.
package delegation

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"
)

// Scope is a bitmask of delegated capabilities.
type Scope uint8

// Delegable capabilities.
const (
	// ScopeControl permits queueing control commands.
	ScopeControl Scope = 1 << iota
	// ScopeRead permits reading the device's reported readings.
	ScopeRead
	// ScopeShare permits re-delegating (subject to remaining depth).
	ScopeShare
)

// scopeNames is the canonical name order (the wire and snapshot order).
var scopeNames = []struct {
	bit  Scope
	name string
}{
	{ScopeControl, "control"},
	{ScopeRead, "read"},
	{ScopeShare, "share"},
}

// Has reports whether every bit of want is present.
func (s Scope) Has(want Scope) bool { return s&want == want }

// Names renders the scope set as its sorted canonical names.
func (s Scope) Names() []string {
	out := make([]string, 0, len(scopeNames))
	for _, sn := range scopeNames {
		if s.Has(sn.bit) {
			out = append(out, sn.name)
		}
	}
	return out
}

// String implements fmt.Stringer ("control+read+share").
func (s Scope) String() string {
	names := s.Names()
	if len(names) == 0 {
		return "none"
	}
	out := names[0]
	for _, n := range names[1:] {
		out += "+" + n
	}
	return out
}

// ScopeName returns the table's own string for the scope name raw
// spells, or a copy of raw for any other bytes.
func ScopeName(raw []byte) string {
	for _, sn := range scopeNames {
		if string(raw) == sn.name {
			return sn.name
		}
	}
	return string(raw)
}

// ParseScopes converts capability names to a Scope. Unknown names and
// empty sets are rejected.
func ParseScopes(names []string) (Scope, error) {
	var s Scope
	for _, name := range names {
		found := false
		for _, sn := range scopeNames {
			if sn.name == name {
				s |= sn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("%w: unknown scope %q", errBadGrant, name)
		}
	}
	if s == 0 {
		return 0, fmt.Errorf("%w: empty scope set", errBadGrant)
	}
	return s, nil
}

// Grant is one delegation record: Grantor hands Grantee the Scopes
// until Expiry (zero = no expiry of its own), with Depth re-delegations
// left in the grantee's budget.
type Grant struct {
	Grantor string
	Grantee string
	Scopes  Scope
	Expiry  time.Time
	Depth   int
}

// Expired reports whether the grant is past its own expiry at now.
func (g Grant) Expired(now time.Time) bool {
	return !g.Expiry.IsZero() && now.After(g.Expiry)
}

// Lattice errors.
var (
	// errBadGrant covers structurally invalid grants (empty parties,
	// self-grants, grants to the owner, empty or unknown scopes,
	// negative depth).
	errBadGrant = errors.New("delegation: invalid grant")
	// ErrNoAuthority is returned when the grantor is neither the owner
	// nor the holder of a live grant carrying the share scope.
	ErrNoAuthority = errors.New("delegation: grantor holds no delegation authority")
	// ErrDepthExhausted is returned when the grantor's re-delegation
	// budget is spent.
	ErrDepthExhausted = errors.New("delegation: re-delegation depth exhausted")
	// ErrEscalation is returned under scope attenuation when a derived
	// grant would exceed its grantor's scopes, depth or lifetime.
	ErrEscalation = errors.New("delegation: derived grant exceeds grantor's authority")
)

// Lattice is one device's delegation forest, rooted at the bound owner.
// It is not self-synchronizing: the owning shadow's lock guards it. The
// zero Lattice, like one Reset to "", is rooted at no one: it holds no
// grant and authorizes nobody until Reset roots it.
type Lattice struct {
	root   string
	grants map[string]Grant // by grantee
	// severed is the scratch list Grant and Revoke return.
	severed []string
	// gen counts mutations; memo entries stamped with an older gen are
	// dead. Memoization keeps the use-time chain walk off the steady
	// hot path: a verified (grantee, chain) pair is summarized as its
	// scope set plus the minimum expiry along the chain, valid until
	// the next mutation.
	gen  uint64
	memo map[string]authMemo
}

// authMemo is one positively verified authorization: the grantee's
// scopes and the earliest expiry on the chain from it to the root
// (zero = no link expires), valid while gen matches the lattice's.
type authMemo struct {
	scopes Scope
	expiry time.Time
	gen    uint64
}

// New returns an empty lattice rooted at the bound owner.
func New(root string) *Lattice {
	return &Lattice{root: root, grants: make(map[string]Grant)}
}

// Reset empties the lattice in place and roots it at root ("" roots it
// at no one): every grant and memoized verdict goes, the maps and the
// scratch list stay for the next owner's grants.
func (l *Lattice) Reset(root string) {
	clear(l.grants)
	clear(l.memo)
	l.root = root
	l.gen++
}

// CopyFrom makes l a copy of src — root, grants and memoized verdicts —
// in l's own maps, so neither lattice sees the other's later mutations.
// Copying into maps that held as many entries allocates nothing.
func (l *Lattice) CopyFrom(src *Lattice) {
	l.root, l.gen = src.root, src.gen
	l.grants = copyMap(l.grants, src.grants)
	l.memo = copyMap(l.memo, src.memo)
	clear(l.severed)
	l.severed = l.severed[:0]
}

// copyMap returns src's entries in dst, made only when src has some.
func copyMap[V any](dst, src map[string]V) map[string]V {
	clear(dst)
	if dst == nil && len(src) > 0 {
		dst = make(map[string]V, len(src))
	}
	maps.Copy(dst, src)
	return dst
}

// Len returns the number of live grants.
func (l *Lattice) Len() int { return len(l.grants) }

// Get returns the grantee's grant, if any.
func (l *Lattice) Get(grantee string) (Grant, bool) {
	g, ok := l.grants[grantee]
	return g, ok
}

// Grant validates and records g, replacing any existing grant the
// grantee holds (and severing the subtree derived from the replaced
// grant). attenuate enforces monotone attenuation on derived grants:
// scopes a subset of the grantor's, depth strictly below the grantor's
// budget, expiry no later than the grantor's. Without it, a grantee
// holding the share scope may mint any grant — the A6-2 escalation.
// It returns the grantees severed by replacement, sorted, so the caller
// can retire their minted tokens; the list is the lattice's, valid until
// its next mutation.
func (l *Lattice) Grant(g Grant, now time.Time, attenuate bool) ([]string, error) {
	if g.Grantor == "" || g.Grantee == "" {
		return nil, fmt.Errorf("%w: empty party", errBadGrant)
	}
	if g.Grantee == l.root {
		return nil, fmt.Errorf("%w: owner cannot be their own grantee", errBadGrant)
	}
	if g.Grantee == g.Grantor {
		return nil, fmt.Errorf("%w: self-grant", errBadGrant)
	}
	if g.Scopes == 0 {
		return nil, fmt.Errorf("%w: empty scope set", errBadGrant)
	}
	if g.Depth < 0 {
		return nil, fmt.Errorf("%w: negative depth", errBadGrant)
	}
	if g.Grantor != l.root {
		parent, ok := l.grants[g.Grantor]
		if !ok || !l.chainLive(g.Grantor, now) {
			return nil, ErrNoAuthority
		}
		if !parent.Scopes.Has(ScopeShare) {
			return nil, fmt.Errorf("%w: grant lacks the share scope", ErrNoAuthority)
		}
		if parent.Depth < 1 {
			return nil, ErrDepthExhausted
		}
		if attenuate {
			if !parent.Scopes.Has(g.Scopes) {
				return nil, fmt.Errorf("%w: scopes %v exceed grantor's %v", ErrEscalation, g.Scopes, parent.Scopes)
			}
			if g.Depth >= parent.Depth {
				return nil, fmt.Errorf("%w: depth %d not below grantor's budget %d", ErrEscalation, g.Depth, parent.Depth)
			}
			if !parent.Expiry.IsZero() && (g.Expiry.IsZero() || g.Expiry.After(parent.Expiry)) {
				return nil, fmt.Errorf("%w: grant outlives grantor's expiry", ErrEscalation)
			}
		}
		// A grant cycle (grantor delegating to their own ancestor) would
		// make chain walks diverge; attenuated or not, the grantee must
		// not sit on the grantor's own chain.
		cur := g.Grantor
		for steps := 0; steps <= len(l.grants) && cur != l.root; steps++ {
			p, ok := l.grants[cur]
			if !ok {
				break
			}
			if p.Grantor == g.Grantee {
				return nil, fmt.Errorf("%w: grant would create a delegation cycle", errBadGrant)
			}
			cur = p.Grantor
		}
	}
	var severed []string
	if _, exists := l.grants[g.Grantee]; exists {
		severed = l.severSubtree(g.Grantee)[1:]
	}
	if l.grants == nil {
		l.grants = make(map[string]Grant)
	}
	l.grants[g.Grantee] = g
	l.gen++
	return severed, nil
}

// Revoke removes the grantee's grant. With cascade, every grant derived
// from it is severed atomically with it; without (the A6-1 permissive
// mode), derived grants survive their parent's revocation. It returns
// the severed grantees (the target first, the rest sorted) in the
// lattice's list, valid until its next mutation; revoking an account
// holding no grant is a no-op.
func (l *Lattice) Revoke(grantee string, cascade bool) []string {
	if _, ok := l.grants[grantee]; !ok {
		return nil
	}
	l.gen++
	if !cascade {
		delete(l.grants, grantee)
		l.severed = append(l.severed[:0], grantee)
		return l.severed
	}
	severed := l.severSubtree(grantee)
	delete(l.grants, grantee)
	return severed
}

// severSubtree removes every grant transitively derived from grantee's
// grant (not the grant itself). It returns the lattice's severed list:
// grantee, then the severed grantees sorted. The list is its own
// breadth-first frontier: each round scans for the grants whose grantor
// the previous round cut.
func (l *Lattice) severSubtree(grantee string) []string {
	l.severed = append(l.severed[:0], grantee)
	for lo := 0; lo < len(l.severed); {
		hi := len(l.severed)
		for holder, g := range l.grants {
			if holder != grantee && slices.Contains(l.severed[lo:hi], g.Grantor) {
				l.severed = append(l.severed, holder)
			}
		}
		for _, holder := range l.severed[hi:] {
			delete(l.grants, holder)
		}
		lo = hi
	}
	slices.Sort(l.severed[1:])
	return l.severed
}

// Authorize reports whether user may exercise scope at now: the user
// holds a live grant carrying the scope, and every grant on the chain
// from it to the owner is itself unexpired. The owner always may; a
// lattice rooted at no one has no owner.
func (l *Lattice) Authorize(user string, scope Scope, now time.Time) bool {
	if user == l.root {
		return user != ""
	}
	// A memoized verification from the current generation answers
	// without re-walking the chain; expiry can only move the verdict
	// from yes to no as now advances, and any mutation bumps gen.
	if m, ok := l.memo[user]; ok && m.gen == l.gen &&
		m.scopes.Has(scope) && (m.expiry.IsZero() || !now.After(m.expiry)) {
		return true
	}
	g, ok := l.grants[user]
	if !ok || !g.Scopes.Has(scope) || g.Expired(now) {
		return false
	}
	if !l.chainLive(user, now) {
		return false
	}
	l.memoize(user, g)
	return true
}

// memoize records a verified authorization: user's scopes plus the
// earliest expiry on their (just-walked, fully live) chain.
func (l *Lattice) memoize(user string, g Grant) {
	expiry := time.Time{}
	cur := user
	for steps := 0; ; steps++ {
		p, ok := l.grants[cur]
		if !ok || steps > len(l.grants) { // bounded like chainLive
			return
		}
		if !p.Expiry.IsZero() && (expiry.IsZero() || p.Expiry.Before(expiry)) {
			expiry = p.Expiry
		}
		if p.Grantor == l.root {
			break
		}
		cur = p.Grantor
	}
	if l.memo == nil {
		l.memo = make(map[string]authMemo)
	}
	l.memo[user] = authMemo{scopes: g.Scopes, expiry: expiry, gen: l.gen}
}

// chainLive walks the grant chain from holder to the root, requiring
// every link to exist and be unexpired. The walk is bounded by the
// grant count, so a corrupted import cannot loop it.
func (l *Lattice) chainLive(holder string, now time.Time) bool {
	cur := holder
	for steps := 0; steps <= len(l.grants); steps++ {
		g, ok := l.grants[cur]
		if !ok || g.Expired(now) {
			return false
		}
		if g.Grantor == l.root {
			return true
		}
		cur = g.Grantor
	}
	return false
}

// DirectGrantees lists the accounts holding a grant directly from the
// owner, sorted — the flat guest list the share compatibility surface
// reports.
func (l *Lattice) DirectGrantees() []string {
	var out []string
	for grantee, g := range l.grants {
		if g.Grantor == l.root {
			out = append(out, grantee)
		}
	}
	sort.Strings(out)
	return out
}

// Grants exports every grant sorted by grantee — the deterministic
// snapshot and listing order.
func (l *Lattice) Grants() []Grant {
	out := make([]Grant, 0, len(l.grants))
	for _, g := range l.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Grantee < out[j].Grantee })
	return out
}

// Import rebuilds a lattice from exported grants. Structure is checked
// (no grants to the root, no self-grants, no duplicate grantees); grant
// semantics are not re-validated — the grants were validated when made,
// under whatever policy the design then enforced.
func Import(root string, grants []Grant) (*Lattice, error) {
	l := New(root)
	for _, g := range grants {
		if g.Grantor == "" || g.Grantee == "" || g.Grantee == root || g.Grantee == g.Grantor || g.Scopes == 0 {
			return nil, fmt.Errorf("%w: grant %q->%q", errBadGrant, g.Grantor, g.Grantee)
		}
		if _, dup := l.grants[g.Grantee]; dup {
			return nil, fmt.Errorf("%w: duplicate grantee %q", errBadGrant, g.Grantee)
		}
		l.grants[g.Grantee] = g
	}
	return l, nil
}
