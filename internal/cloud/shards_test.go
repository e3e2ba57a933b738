package cloud

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
)

// TestShardMapsAppearOnFirstInsert: a shard's map is made by the first
// insert into it, so every reader must take a shard that never stored a
// shadow for an empty one — and two first inserts racing on one shard
// must agree on the map and on the shadow.
func TestShardMapsAppearOnFirstInsert(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(devIDDesign(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.store.peek(testDevice); ok {
		t.Error("peek found a shadow in a store nothing was put in")
	}
	if ids := svc.store.ids(); len(ids) != 0 {
		t.Errorf("ids() = %v on an empty store", ids)
	}
	if _, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: "no-such-device"}); err == nil {
		t.Error("ShadowState answered for an unregistered device")
	}
	snap := svc.Snapshot()
	if len(snap.Shadows) != 0 {
		t.Errorf("snapshot of a cloud that never stored a shadow holds %d", len(snap.Shadows))
	}
	if err := svc.Restore(snap); err != nil {
		t.Fatalf("restore of the empty snapshot: %v", err)
	}
	if ids := svc.store.ids(); len(ids) != 0 {
		t.Errorf("ids() = %v after restoring the empty snapshot", ids)
	}

	// A restored cloud has a map only in the shards its snapshot filled.
	filled := []string{testDevice, "dev-restore-1", "dev-restore-2"}
	for _, id := range filled {
		if id != testDevice {
			if err := reg.Add(DeviceRecord{ID: id, FactorySecret: testSecret}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := NewService(devIDDesign(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(svc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := make(map[uint32]bool)
	for _, id := range filled {
		want[fnv1a(id)&restored.store.mask] = true
	}
	for i := range restored.store.shards {
		if has := restored.store.shards[i].shadows != nil; has != want[uint32(i)] {
			t.Errorf("restored shard %d has a map: %v, want %v", i, has, want[uint32(i)])
		}
	}
	if ids := restored.store.ids(); len(ids) != len(filled) {
		t.Errorf("restored ids() = %v, want %d shadows", ids, len(filled))
	}
	// Restoring the empty snapshot over them empties those maps in place.
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := range restored.store.shards {
		if sd := &restored.store.shards[i]; len(sd.shadows) != 0 || (sd.shadows != nil) != want[uint32(i)] {
			t.Errorf("shard %d after restoring the empty snapshot: %d shadows, map kept %v, want 0 and %v", i, len(sd.shadows), sd.shadows != nil, want[uint32(i)])
		}
	}

	// First inserts, racing: gets of the same IDs on one empty shard.
	st := newShadowStore()
	var same []string // device IDs that all map to shard 0
	for i := 0; len(same) < 8; i++ {
		if id := fmt.Sprintf("dev-%d", i); fnv1a(id)&st.mask == 0 {
			same = append(same, id)
		}
	}
	var wg sync.WaitGroup
	got := make([][]*shadow, 8)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, id := range same {
				got[w] = append(got[w], st.get(id))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(got); w++ {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("worker %d and worker 0 hold different shadows for the same IDs", w)
		}
	}
	sort.Strings(same)
	if ids := st.ids(); !reflect.DeepEqual(ids, same) {
		t.Errorf("ids() = %v, want %v", ids, same)
	}
	for i := 1; i < len(st.shards); i++ {
		if st.shards[i].shadows != nil {
			t.Errorf("shard %d has a map though nothing was inserted into it", i)
		}
	}
}

// TestNewServiceAllocatesNoShardMaps: what a new cloud pays for its store
// must not grow with the host's core count (4 × GOMAXPROCS maps, up to
// 512, before): its shard array, nothing per shard. The store itself sits
// inside the Service.
func TestNewServiceAllocatesNoShardMaps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { newShadowStore() }); n > 1 {
		t.Errorf("newShadowStore: %v allocations, want at most 1 (its shard array)", n)
	}
	st := newShadowStore()
	for i := range st.shards {
		if st.shards[i].shadows != nil {
			t.Fatalf("shard %d of a new store already has a map", i)
		}
	}
}
