package testbed

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
)

// TestSnapshotUnderFleetLoad captures snapshots concurrently with a
// live fleet-load run and proves every capture is usable: per-device
// consistent (each shadow copied under its own lock parses and
// restores), and restorable into a fresh service whose re-encoded state
// is byte-identical to the capture.
func TestSnapshotUnderFleetLoad(t *testing.T) {
	var (
		mu    sync.Mutex
		snaps []cloud.Snapshot
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	cfg := fleetLoadConfig{
		Design:       fleetDesign(),
		Devices:      8,
		Heartbeats:   40,
		ReadingEvery: 4,
		Workers:      4,
		OnService: func(svc *cloud.Service) {
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := svc.Snapshot()
					mu.Lock()
					snaps = append(snaps, snap)
					mu.Unlock()
					time.Sleep(time.Millisecond)
				}
			}()
		},
	}
	res, err := runFleetLoad(cfg)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != cfg.Devices*cfg.Heartbeats {
		t.Fatalf("load run delivered %d messages, want %d", res.Messages, cfg.Devices*cfg.Heartbeats)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured during the run")
	}

	// Every concurrent capture must restore into a fresh service and
	// re-encode identically (modulo the restored service's own clock).
	registry := cloud.NewRegistry()
	for _, ss := range snaps[len(snaps)-1].Shadows {
		if err := registry.Add(cloud.DeviceRecord{ID: ss.DeviceID, FactorySecret: "fs-" + ss.DeviceID}); err != nil {
			t.Fatal(err)
		}
	}
	for i, snap := range snaps {
		for _, ss := range snap.Shadows {
			if len(ss.Readings) > cfg.Heartbeats {
				t.Fatalf("capture %d: device %s carries %d readings, more than ever sent", i, ss.DeviceID, len(ss.Readings))
			}
		}
		svc2, err := cloud.NewService(cfg.Design, registry)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc2.Restore(snap); err != nil {
			t.Fatalf("capture %d not restorable: %v", i, err)
		}
		restored := svc2.Snapshot()
		restored.TakenAt = snap.TakenAt
		var want, got bytes.Buffer
		if err := cloud.EncodeSnapshot(&want, snap); err != nil {
			t.Fatal(err)
		}
		if err := cloud.EncodeSnapshot(&got, restored); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("capture %d round-trips dirty:\ncaptured:\n%s\nrestored:\n%s", i, want.Bytes(), got.Bytes())
		}
	}
}
