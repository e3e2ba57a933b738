package testbed

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanOutSplit: the slices are contiguous, disjoint and cover [0, n)
// whether n divides evenly or not, and a worker left without items is
// never started.
func TestFanOutSplit(t *testing.T) {
	for _, tc := range []struct{ workers, n, wantSlices int }{
		{4, 10, 4}, // uneven: 3+3+3+1
		{4, 9, 3},  // ⌈9/4⌉ = 3 leaves the fourth worker nothing
		{8, 3, 3},  // more workers than items
		{1, 5, 1},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		workers := make(map[int]bool)
		if err := fanOut(tc.workers, tc.n, func(w, lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			if lo >= hi || workers[w] {
				t.Errorf("fanOut(%d, %d): worker %d got [%d, %d)", tc.workers, tc.n, w, lo, hi)
			}
			workers[w] = true
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("fanOut(%d, %d): item %d visited %d times", tc.workers, tc.n, i, c)
			}
		}
		if len(workers) != tc.wantSlices {
			t.Errorf("fanOut(%d, %d) ran %d slices, want %d", tc.workers, tc.n, len(workers), tc.wantSlices)
		}
	}
}

// TestFanOutFirstError: a failing slice's error is what fanOut returns,
// and the other slices — here still running when it failed — run to
// completion before fanOut does.
func TestFanOutFirstError(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	var finished atomic.Int64
	err := fanOut(4, 4, func(w, _, _ int) error {
		defer finished.Add(1)
		if w == 0 {
			defer close(failed)
			return boom
		}
		<-failed
		return nil
	})
	if err != boom {
		t.Errorf("fanOut = %v, want the failing slice's error", err)
	}
	if got := finished.Load(); got != 4 {
		t.Errorf("%d of 4 slices finished before fanOut returned", got)
	}
}
