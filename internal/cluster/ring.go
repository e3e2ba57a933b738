// Package cluster turns N durable cloud nodes into one logical cloud:
// a consistent-hash ring assigns every device (and user account) to an
// owner node, a router implementing transport.Cloud dispatches each
// request to its owner, and each node ships its WAL to a warm replica
// that takes over on a kill. Devices, apps, retry wrappers and both
// front ends work against the router unchanged — the fleet looks like
// the single cloud the paper's binding model assumes.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// defaultVirtualNodes is how many ring points each node contributes.
// Enough that a 3-node ring splits keys within a few percent of evenly;
// few enough that Owner's binary search stays trivially cheap.
const defaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over node names. Ownership
// of a key is the first ring point clockwise from the key's hash.
// Immutability is deliberate: membership changes in this design are
// failovers — a replica takes over its dead primary's slice under the
// same node name — so the key→node map never moves, only the backend
// behind the name (a transport.Switchable) does.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring over the given node names with virtual points
// per node (0 selects the default). Names must be unique and non-empty.
func NewRing(nodes []string, virtual int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if virtual <= 0 {
		virtual = defaultVirtualNodes
	}
	seen := make(map[string]struct{}, len(nodes))
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for _, node := range r.nodes {
		if node == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if _, dup := seen[node]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", node)
		}
		seen[node] = struct{}{}
		for v := 0; v < virtual; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv1a32(node + "#" + strconv.Itoa(v)),
				node: node,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (rare) break by name so ownership is deterministic
		// regardless of insertion order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node owning key: the first ring point at or past
// the key's hash, wrapping to the lowest point.
func (r *Ring) Owner(key string) string { return r.owner(fnv1a32(key)) }

// owner is Owner for a hashed key: the router hashes raw wire bytes.
func (r *Ring) owner(h uint32) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// fnv1a32 is the same FNV-1a the cloud's store and WAL shards use for
// device routing — one hash family end to end keeps placement reasoning
// simple, though the ring's key space (node#vnode) is its own.
func fnv1a32[K string | []byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
