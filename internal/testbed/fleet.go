package testbed

import (
	"fmt"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
)

// labEpoch is where every rig's manual clock starts. The load harnesses
// never advance theirs: on a frozen clock liveness state (lastSeen) is a
// constant, so state compares are exact however a run was scheduled.
var labEpoch = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// newFleet manufactures n devices of one model — IDs AA:BB:CC:xx:xx:xx,
// factory secret "factory-secret-<ID>" — into a fresh registry.
func newFleet(n int, model string) ([]string, *cloud.Registry, error) {
	registry := cloud.NewRegistry()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", (i>>16)&0xff, (i>>8)&0xff, i&0xff)
		if err := registry.Add(cloud.DeviceRecord{
			ID:            ids[i],
			FactorySecret: "factory-secret-" + ids[i],
			Model:         model,
		}); err != nil {
			return nil, nil, err
		}
	}
	return ids, registry, nil
}

// fanOut cuts [0, n) into contiguous slices of ⌈n/workers⌉ items, runs
// fn(w, lo, hi) on each in its own goroutine (a worker left with nothing
// is not started) and waits for all of them. It returns the first error a
// slice reported; the other slices still run to completion.
func fanOut(workers, n int, fn func(w, lo, hi int) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	per := (n + workers - 1) / workers
	for w := 0; w < workers && w*per < n; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if err := fn(w, lo, hi); err != nil {
				once.Do(func() { first = err })
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return first
}
