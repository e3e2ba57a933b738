package cloud

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/protocol"
)

// handleStatusBatch applies a batch of status messages with shard-grouped
// dispatch: items are bucketed by device, devices by shard, each shard's
// lock is taken once per batch (see shadowStore.getMany) and each device's
// shadow lock once per batch, with that device's items applied
// consecutively in arrival order. Per-device semantics are therefore
// identical to sending the items individually — the savings are purely in
// lock round-trips and wire framing, never in ordering.
//
// Every item succeeds or fails on its own: a bad credential, unknown
// device or malformed kind fills that item's result slot and leaves the
// rest of the batch untouched. The batch itself only fails on transport
// or framing problems, which keeps the per-item error vocabulary exact.
func (s *Service) handleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	items := req.Items
	resp := protocol.StatusBatchResponse{Results: make([]protocol.StatusBatchResult, len(items))}
	if len(items) == 0 {
		return resp, nil
	}

	// Pass 1: validate each item, resolve registry records (cached per
	// device, hits and misses alike), and bucket item indices by device in
	// arrival order.
	type devGroup struct {
		rec   DeviceRecord
		known bool
		items []int
	}
	groups := make(map[string]*devGroup, len(items))
	order := make([]string, 0, len(items))
	for i := range items {
		it := &items[i]
		if req.SourceIP != "" {
			it.SourceIP = req.SourceIP
		}
		if it.Kind != protocol.StatusRegister && it.Kind != protocol.StatusHeartbeat {
			resp.Results[i] = protocol.MakeBatchResult(protocol.StatusResponse{}, errStatusKind)
			continue
		}
		g, ok := groups[it.DeviceID]
		if !ok {
			rec, known := s.registry.Lookup(it.DeviceID)
			g = &devGroup{rec: rec, known: known}
			groups[it.DeviceID] = g
			order = append(order, it.DeviceID)
		}
		if !g.known {
			resp.Results[i] = protocol.MakeBatchResult(protocol.StatusResponse{},
				fmt.Errorf("cloud: %q: %w", it.DeviceID, protocol.ErrUnknownDevice))
			continue
		}
		g.items = append(g.items, i)
	}

	// Pass 2: group the known devices by shard, preserving first-appearance
	// order within each shard group.
	shardIDs := make(map[uint32][]string)
	for _, id := range order {
		if g := groups[id]; g.known && len(g.items) > 0 {
			idx := s.store.shardIndex(id)
			shardIDs[idx] = append(shardIDs[idx], id)
		}
	}

	// Pass 3: one lock round per shard, one lock round per device. Shards
	// are visited in order of first appearance, not in map order: a
	// register may draw a session nonce, and the draws of one batch come
	// off one stream, so replay must make them in the order the live
	// execution did.
	for _, first := range order {
		idx := s.store.shardIndex(first)
		ids, pending := shardIDs[idx]
		if !pending {
			continue
		}
		delete(shardIDs, idx)
		shadows := s.store.getMany(idx, ids)
		for j, id := range ids {
			g := groups[id]
			sh := shadows[j]
			sh.mu.Lock()
			for _, i := range g.items {
				r, err := s.statusLocked(sh, g.rec, items[i], nil)
				resp.Results[i] = protocol.MakeBatchResult(r, err)
			}
			sh.mu.Unlock()
		}
	}
	return resp, nil
}
