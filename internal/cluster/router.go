package cluster

import (
	"fmt"
	"sync"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Router fronts the fleet as one transport.Cloud: device-addressed
// requests go to the ring owner of the device ID, account-addressed
// ones to the owner of the user ID, and account creation broadcasts
// (any node may later authenticate the user for its own devices'
// binds). Each member sits behind a transport.Switchable, so a
// failover — swap the promoted replica in behind the dead primary's
// name — is invisible to the router and to every agent above it.
type Router struct {
	// Hopped forwards every single-key operation to its owner; the two
	// methods below are the ones that address more than one node.
	transport.Hopped
	ring    *Ring
	members map[string]*transport.Switchable
}

// NewRouter builds a router over the ring's members. members must hold
// exactly the ring's node names.
func NewRouter(ring *Ring, members map[string]*transport.Switchable) (*Router, error) {
	for _, name := range ring.Nodes() {
		if members[name] == nil {
			return nil, fmt.Errorf("cluster: router missing member %q", name)
		}
	}
	if len(members) != len(ring.Nodes()) {
		return nil, fmt.Errorf("cluster: router has %d members for a %d-node ring", len(members), len(ring.Nodes()))
	}
	r := &Router{ring: ring, members: members}
	r.Hopped = transport.NewHopped(routerHop{r})
	return r, nil
}

// Member returns the Switchable behind a node name (the failover hook).
func (r *Router) Member(name string) *transport.Switchable { return r.members[name] }

// Ring returns the ring (ownership diagnostics).
func (r *Router) Ring() *Ring { return r.ring }

// routerHop routes by ring owner of the routing key: the device ID, or
// for login the user ID — the token a login issues verifies only on the
// node that issued it, so every later token-bearing call for it must
// route the same way, which UserID-keyed routing guarantees.
type routerHop struct{ r *Router }

func (h routerHop) Begin(_ transport.Op, key string) (transport.Cloud, error) {
	return h.r.members[h.r.ring.Owner(key)], nil
}

func (h routerHop) End(_ transport.Op, err error) error { return err }

// DeviceID forwards transport.DeviceIDs to the ring owner of raw.
func (r *Router) DeviceID(raw []byte) string {
	return r.members[r.ring.owner(fnv1a32(raw))].DeviceID(raw)
}

// RegisterUser broadcasts: accounts must exist everywhere because a
// bind authenticating (UserID, password) lands on the device's owner,
// not the account's. First error wins; a retry after partial success
// reports user-exists from the nodes that already accepted it, so
// harnesses create accounts before any failover window (see DESIGN §10).
func (r *Router) RegisterUser(req protocol.RegisterUserRequest) error {
	for _, name := range r.ring.Nodes() {
		if err := r.members[name].RegisterUser(req); err != nil {
			return err
		}
	}
	return nil
}

// HandleStatusBatch splits the batch by owner, dispatches the sub-
// batches concurrently and stitches the per-item results back into
// request order. A sub-batch envelope failure fails the whole batch —
// the batch contract is all-or-nothing at the envelope level, and the
// retry layer redelivers with the same item keys, so accepted items on
// other nodes dedup.
func (r *Router) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	if len(req.Items) == 0 {
		return protocol.StatusBatchResponse{}, nil
	}
	type split struct {
		sub     protocol.StatusBatchRequest
		indices []int
	}
	splits := make(map[string]*split)
	order := make([]string, 0, 1)
	for i := range req.Items {
		name := r.ring.Owner(req.Items[i].DeviceID)
		sp := splits[name]
		if sp == nil {
			sp = &split{sub: protocol.StatusBatchRequest{SourceIP: req.SourceIP}}
			splits[name] = sp
			order = append(order, name)
		}
		sp.sub.Items = append(sp.sub.Items, req.Items[i])
		sp.indices = append(sp.indices, i)
	}
	if len(splits) == 1 {
		return r.members[order[0]].HandleStatusBatch(req)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	out := protocol.StatusBatchResponse{Results: make([]protocol.StatusBatchResult, len(req.Items))}
	for _, name := range order {
		sp := splits[name]
		backend := r.members[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := backend.HandleStatusBatch(sp.sub)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for j, idx := range sp.indices {
				out.Results[idx] = resp.Results[j]
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return protocol.StatusBatchResponse{}, firstErr
	}
	return out, nil
}
