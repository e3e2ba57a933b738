package delegation

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func mustGrant(t *testing.T, l *Lattice, g Grant, attenuate bool) []string {
	t.Helper()
	severed, err := l.Grant(g, t0, attenuate)
	if err != nil {
		t.Fatalf("Grant(%+v) = %v", g, err)
	}
	return severed
}

func TestScopeParsing(t *testing.T) {
	s, err := ParseScopes([]string{"control", "share"})
	if err != nil || s != ScopeControl|ScopeShare {
		t.Fatalf("ParseScopes = %v, %v", s, err)
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"control", "share"}) {
		t.Fatalf("Names() = %v", got)
	}
	if _, err := ParseScopes([]string{"root"}); !errors.Is(err, errBadGrant) {
		t.Fatalf("unknown scope accepted: %v", err)
	}
	if _, err := ParseScopes(nil); !errors.Is(err, errBadGrant) {
		t.Fatalf("empty scope set accepted: %v", err)
	}
	if (ScopeControl | ScopeRead).String() != "control+read" {
		t.Fatalf("String() = %q", (ScopeControl | ScopeRead).String())
	}
}

func TestGrantChainAndAuthorize(t *testing.T) {
	l := New("owner")
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: ScopeControl | ScopeRead | ScopeShare, Depth: 2}, true)
	mustGrant(t, l, Grant{Grantor: "guest", Grantee: "sub", Scopes: ScopeControl, Depth: 0}, true)

	if !l.Authorize("owner", ScopeControl|ScopeShare, t0) {
		t.Fatal("owner lost authority")
	}
	if !l.Authorize("guest", ScopeControl, t0) || !l.Authorize("sub", ScopeControl, t0) {
		t.Fatal("chain authorization failed")
	}
	if l.Authorize("sub", ScopeRead, t0) {
		t.Fatal("sub-guest read scope not granted but authorized")
	}
	if l.Authorize("stranger", ScopeControl, t0) {
		t.Fatal("stranger authorized")
	}
	if got := l.DirectGrantees(); !reflect.DeepEqual(got, []string{"guest"}) {
		t.Fatalf("DirectGrantees = %v", got)
	}
}

func TestGrantValidation(t *testing.T) {
	l := New("owner")
	cases := []struct {
		g    Grant
		want error
	}{
		{Grant{Grantor: "owner", Grantee: "owner", Scopes: ScopeControl}, errBadGrant},
		{Grant{Grantor: "x", Grantee: "x", Scopes: ScopeControl}, errBadGrant},
		{Grant{Grantor: "owner", Grantee: "g"}, errBadGrant},
		{Grant{Grantor: "owner", Grantee: "g", Scopes: ScopeControl, Depth: -1}, errBadGrant},
		{Grant{Grantor: "stranger", Grantee: "g", Scopes: ScopeControl}, ErrNoAuthority},
	}
	for i, c := range cases {
		if _, err := l.Grant(c.g, t0, true); !errors.Is(err, c.want) {
			t.Fatalf("case %d: Grant = %v, want %v", i, err, c.want)
		}
	}

	// A grantee without the share scope cannot re-delegate at all.
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "reader", Scopes: ScopeRead, Depth: 3}, true)
	if _, err := l.Grant(Grant{Grantor: "reader", Grantee: "g", Scopes: ScopeRead}, t0, true); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("shareless re-delegation = %v", err)
	}
	// Depth 0 exhausts the budget even with the share scope.
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "spent", Scopes: ScopeShare | ScopeControl, Depth: 0}, true)
	if _, err := l.Grant(Grant{Grantor: "spent", Grantee: "g", Scopes: ScopeControl}, t0, true); !errors.Is(err, ErrDepthExhausted) {
		t.Fatalf("depth-0 re-delegation = %v", err)
	}
}

func TestScopeAttenuation(t *testing.T) {
	l := New("owner")
	exp := t0.Add(time.Hour)
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: ScopeRead | ScopeShare, Expiry: exp, Depth: 2}, true)

	// Escalations rejected under attenuation.
	esc := []Grant{
		{Grantor: "guest", Grantee: "sub", Scopes: ScopeControl, Depth: 0, Expiry: exp},               // scope widening
		{Grantor: "guest", Grantee: "sub", Scopes: ScopeRead, Depth: 2, Expiry: exp},                  // depth not below budget
		{Grantor: "guest", Grantee: "sub", Scopes: ScopeRead, Depth: 0},                               // outlives grantor (no expiry)
		{Grantor: "guest", Grantee: "sub", Scopes: ScopeRead, Depth: 0, Expiry: exp.Add(time.Second)}, // later expiry
	}
	for i, g := range esc {
		if _, err := l.Grant(g, t0, true); !errors.Is(err, ErrEscalation) {
			t.Fatalf("escalation %d accepted: %v", i, err)
		}
	}
	// The same widening is accepted without attenuation — A6-2.
	if _, err := l.Grant(esc[0], t0, false); err != nil {
		t.Fatalf("permissive escalation rejected: %v", err)
	}
	if !l.Authorize("sub", ScopeControl, t0) {
		t.Fatal("escalated control not live under permissive design")
	}
}

func TestExpiryKillsChain(t *testing.T) {
	l := New("owner")
	exp := t0.Add(time.Minute)
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: ScopeControl | ScopeShare, Expiry: exp, Depth: 1}, true)
	mustGrant(t, l, Grant{Grantor: "guest", Grantee: "sub", Scopes: ScopeControl, Expiry: exp, Depth: 0}, true)

	if !l.Authorize("sub", ScopeControl, exp) {
		t.Fatal("unexpired chain refused")
	}
	after := exp.Add(time.Second)
	if l.Authorize("sub", ScopeControl, after) || l.Authorize("guest", ScopeControl, after) {
		t.Fatal("expired chain still authorizes")
	}
	// Expired grantors cannot extend the chain either.
	if _, err := l.Grant(Grant{Grantor: "guest", Grantee: "late", Scopes: ScopeControl}, after, false); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("expired grantor granted: %v", err)
	}
}

func TestCascadeRevocation(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeRead | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "a", Scopes: all, Depth: 3}, true)
	mustGrant(t, l, Grant{Grantor: "a", Grantee: "b", Scopes: all, Depth: 2}, true)
	mustGrant(t, l, Grant{Grantor: "b", Grantee: "c", Scopes: ScopeControl, Depth: 0}, true)
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "z", Scopes: ScopeControl, Depth: 0}, true)

	severed := l.Revoke("a", true)
	if !reflect.DeepEqual(severed, []string{"a", "b", "c"}) {
		t.Fatalf("cascade severed %v", severed)
	}
	for _, user := range []string{"a", "b", "c"} {
		if l.Authorize(user, ScopeControl, t0) {
			t.Fatalf("%s survived cascade", user)
		}
	}
	if !l.Authorize("z", ScopeControl, t0) {
		t.Fatal("sibling grant severed by unrelated cascade")
	}
	if got := l.Revoke("a", true); got != nil {
		t.Fatalf("double revoke severed %v", got)
	}
}

func TestNonCascadeLeavesResidual(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: all, Depth: 1}, false)
	mustGrant(t, l, Grant{Grantor: "guest", Grantee: "alt", Scopes: ScopeControl, Depth: 0}, false)

	if got := l.Revoke("guest", false); !reflect.DeepEqual(got, []string{"guest"}) {
		t.Fatalf("non-cascade severed %v", got)
	}
	// A6-1: the derived grant survives, but its chain is broken, so
	// use-time chain checks still block it...
	if l.Authorize("alt", ScopeControl, t0) {
		t.Fatal("broken chain authorized")
	}
	// ...which is exactly why the attack needs the token path (no
	// lattice walk) or a surviving re-grant; the record itself remains.
	if _, ok := l.Get("alt"); !ok {
		t.Fatal("residual grant vanished without cascade")
	}
}

func TestReplacementSeversOldSubtree(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeRead | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: all, Depth: 2}, true)
	mustGrant(t, l, Grant{Grantor: "guest", Grantee: "sub", Scopes: ScopeControl, Depth: 0}, true)

	severed := mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: ScopeRead, Depth: 0}, true)
	if !reflect.DeepEqual(severed, []string{"sub"}) {
		t.Fatalf("replacement severed %v", severed)
	}
	if l.Authorize("guest", ScopeControl, t0) || l.Authorize("sub", ScopeControl, t0) {
		t.Fatal("replaced grant's old authority survived")
	}
	if !l.Authorize("guest", ScopeRead, t0) {
		t.Fatal("replacement grant not live")
	}
}

func TestCycleRejected(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "a", Scopes: all, Depth: 3}, false)
	mustGrant(t, l, Grant{Grantor: "a", Grantee: "b", Scopes: all, Depth: 2}, false)
	if _, err := l.Grant(Grant{Grantor: "b", Grantee: "a", Scopes: ScopeControl}, t0, false); !errors.Is(err, errBadGrant) {
		t.Fatalf("cycle accepted: %v", err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeRead | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "b", Scopes: all, Expiry: t0.Add(time.Hour), Depth: 2}, true)
	mustGrant(t, l, Grant{Grantor: "b", Grantee: "a", Scopes: ScopeRead, Expiry: t0.Add(time.Minute), Depth: 0}, true)

	grants := l.Grants()
	if len(grants) != 2 || grants[0].Grantee != "a" || grants[1].Grantee != "b" {
		t.Fatalf("Grants() order: %+v", grants)
	}
	l2, err := Import("owner", grants)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if !reflect.DeepEqual(l2.Grants(), grants) {
		t.Fatalf("round trip diverged: %+v vs %+v", l2.Grants(), grants)
	}
	if !l2.Authorize("a", ScopeRead, t0) {
		t.Fatal("imported chain dead")
	}

	if _, err := Import("owner", []Grant{{Grantor: "x", Grantee: "owner", Scopes: ScopeRead}}); !errors.Is(err, errBadGrant) {
		t.Fatalf("grant to root imported: %v", err)
	}
	if _, err := Import("owner", append(grants, grants[0])); !errors.Is(err, errBadGrant) {
		t.Fatalf("duplicate grantee imported: %v", err)
	}
}

// TestResetEmptiesInPlace: a reset lattice keeps nothing of its previous
// owner — no grant, no memoized verdict, no authority for the old root —
// and, rooted at no one, authorizes nobody and accepts no grant until it
// is rooted again.
func TestResetEmptiesInPlace(t *testing.T) {
	l := New("owner")
	all := ScopeControl | ScopeRead | ScopeShare
	mustGrant(t, l, Grant{Grantor: "owner", Grantee: "guest", Scopes: all, Depth: 1}, true)
	mustGrant(t, l, Grant{Grantor: "guest", Grantee: "sub", Scopes: ScopeControl}, true)
	if !l.Authorize("guest", ScopeControl, t0) || !l.Authorize("sub", ScopeControl, t0) {
		t.Fatal("chain not live before reset")
	}

	l.Reset("")
	if l.Len() != 0 || len(l.memo) != 0 {
		t.Fatalf("reset kept %d grants and %d memoized verdicts", l.Len(), len(l.memo))
	}
	for _, user := range []string{"owner", "guest", "sub", ""} {
		if l.Authorize(user, ScopeRead, t0) {
			t.Fatalf("%q authorized by a lattice rooted at no one", user)
		}
	}
	if _, err := l.Grant(Grant{Grantor: "owner", Grantee: "guest", Scopes: ScopeRead}, t0, true); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("previous owner granted on a rootless lattice: %v", err)
	}

	l.Reset("next")
	mustGrant(t, l, Grant{Grantor: "next", Grantee: "owner", Scopes: ScopeRead}, true)
	if l.Authorize("owner", ScopeControl, t0) || !l.Authorize("owner", ScopeRead, t0) {
		t.Fatal("previous owner's authority is not the new grant's")
	}
	if l.Authorize("guest", ScopeRead, t0) {
		t.Fatal("previous owner's guest authorized after the reset")
	}
}

// TestLatticeCycleAllocations pins a warm lattice's ownership cycle at
// zero allocations: Reset, grant, authorize (memoizing), a derived
// grant, a cascading revoke that returns the lattice's own severed list,
// and Reset again. The maps and the list are kept across Reset.
func TestLatticeCycleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var l Lattice
	all := ScopeControl | ScopeRead | ScopeShare
	cycle := func() {
		l.Reset("owner")
		if _, err := l.Grant(Grant{Grantor: "owner", Grantee: "guest", Scopes: all, Depth: 1}, t0, true); err != nil {
			t.Fatal(err)
		}
		if !l.Authorize("guest", ScopeControl, t0) {
			t.Fatal("guest not authorized")
		}
		if _, err := l.Grant(Grant{Grantor: "guest", Grantee: "sub", Scopes: ScopeRead}, t0, true); err != nil {
			t.Fatal(err)
		}
		if severed := l.Revoke("guest", true); len(severed) != 2 || severed[0] != "guest" || severed[1] != "sub" {
			t.Fatalf("cascade severed %v", severed)
		}
		l.Reset("")
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm lattice cycle allocates %v times, want 0", n)
	}
}

// TestCopyFrom: a copied lattice authorizes exactly as its source, keeps
// nothing of its own past — not a memoized verdict stamped with the
// generation it takes over — and shares nothing with the source after.
func TestCopyFrom(t *testing.T) {
	src, dst := New("owner"), New("other-owner")
	mustGrant(t, src, Grant{Grantor: "owner", Grantee: "a", Scopes: ScopeControl}, true)
	mustGrant(t, dst, Grant{Grantor: "other-owner", Grantee: "b", Scopes: ScopeControl}, true)
	if !src.Authorize("a", ScopeControl, t0) || !dst.Authorize("b", ScopeControl, t0) {
		t.Fatal("grants do not authorize")
	}
	dst.CopyFrom(src)
	if dst.Authorize("b", ScopeControl, t0) {
		t.Error("the copy kept its own memoized verdict for b")
	}
	if !dst.Authorize("a", ScopeControl, t0) || !dst.Authorize("owner", ScopeControl, t0) {
		t.Error("the copy does not authorize as its source")
	}
	if !reflect.DeepEqual(dst.Grants(), src.Grants()) {
		t.Errorf("copied grants %+v, want %+v", dst.Grants(), src.Grants())
	}
	src.Revoke("a", true)
	if !dst.Authorize("a", ScopeControl, t0) {
		t.Error("revoking on the source revoked on the copy")
	}
}
