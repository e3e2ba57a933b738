package iotbind_test

// Durability benchmarks (EXPERIMENTS.md §BENCH_5):
//
//	BenchmarkWALAppend     — raw log append cost per fsync policy
//	BenchmarkRecovery      — reopen cost: full WAL replay vs snapshot-anchored
//	BenchmarkDurableStatus — the status hot path, in-memory vs write-ahead
//
// The headline number is DurableStatus: with the grouped fsync policy the
// write-ahead path must stay within 20% of the in-memory path for bare
// heartbeats (which skip the log entirely — the liveness fast path) and
// within reason for keyed, data-bearing status messages (which are logged).

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	iotbind "github.com/iotbind/iotbind"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
)

// BenchmarkWALAppend measures the raw append cost of the segmented log
// under each fsync policy with a 256-byte payload — roughly the size of
// an encoded status record.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, 256)
	for _, tc := range []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"off", wal.SyncOff},
		{"grouped", wal.SyncGrouped},
		{"every-record", wal.SyncEveryRecord},
	} {
		b.Run(tc.name, func(b *testing.B) {
			log, err := wal.Open(b.TempDir(), wal.Options{Policy: tc.policy})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchDurableDir builds a durable cloud directory carrying ops logged
// operations past setup, optionally checkpointed (so recovery anchors on
// the snapshot instead of replaying the whole log), and returns it with
// the registry needed to reopen it.
func benchDurableDir(b *testing.B, ops int, checkpoint bool) (string, iotbind.DesignSpec, *iotbind.Registry) {
	b.Helper()
	dir := b.TempDir()
	design := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
	registry := iotbind.NewRegistry()
	if err := registry.Add(iotbind.DeviceRecord{ID: benchDeviceID, FactorySecret: benchSecret, Model: "plug"}); err != nil {
		b.Fatal(err)
	}
	d, err := cloud.OpenDurable(dir, design, registry, cloud.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: benchDeviceID}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		req := protocol.StatusRequest{
			Kind:           protocol.StatusHeartbeat,
			DeviceID:       benchDeviceID,
			IdempotencyKey: fmt.Sprintf("bench-%d", i),
		}
		if _, err := d.HandleStatus(req); err != nil {
			b.Fatal(err)
		}
	}
	if checkpoint {
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, design, registry
}

// BenchmarkRecovery measures cold-start recovery of a durable cloud:
// replaying a 256-record WAL from scratch versus anchoring on a
// checkpoint snapshot and replaying nothing.
func BenchmarkRecovery(b *testing.B) {
	const ops = 256
	// Named without a trailing digit group: benchjson strips a "-N"
	// suffix as the GOMAXPROCS tag.
	b.Run("full-replay", func(b *testing.B) {
		dir, design, registry := benchDurableDir(b, ops, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := cloud.OpenDurable(dir, design, registry, cloud.DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if got := d.Recovery().Replayed; got != ops+1 {
				b.Fatalf("replayed %d records, want %d", got, ops+1)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot-anchored", func(b *testing.B) {
		dir, design, registry := benchDurableDir(b, ops, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := cloud.OpenDurable(dir, design, registry, cloud.DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if rec := d.Recovery(); rec.Replayed != 0 || rec.SnapshotLSN == 0 {
				b.Fatalf("recovery not snapshot-anchored: %+v", rec)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDurableStatus compares the status hot path with and without
// the write-ahead log (grouped fsync). Bare heartbeats ride the liveness
// fast path — nothing queued to drain, so applied and noted, not logged —
// so the durable bare case is the ≤20%-overhead acceptance bar. Keyed
// heartbeats are idempotent (replay-logged) and always write-ahead.
func BenchmarkDurableStatus(b *testing.B) {
	design := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
	type handler interface {
		HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error)
	}
	register := func(b *testing.B, h handler) {
		b.Helper()
		if _, err := h.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: benchDeviceID}); err != nil {
			b.Fatal(err)
		}
	}
	loop := func(b *testing.B, h handler, keyed bool) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: benchDeviceID}
			if keyed {
				req.IdempotencyKey = fmt.Sprintf("bench-%d", i)
			}
			if _, err := h.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	inMemory := func(b *testing.B) handler {
		b.Helper()
		registry := iotbind.NewRegistry()
		if err := registry.Add(iotbind.DeviceRecord{ID: benchDeviceID, FactorySecret: benchSecret, Model: "plug"}); err != nil {
			b.Fatal(err)
		}
		svc, err := iotbind.NewCloud(design, registry)
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	durable := func(b *testing.B) handler {
		b.Helper()
		registry := iotbind.NewRegistry()
		if err := registry.Add(iotbind.DeviceRecord{ID: benchDeviceID, FactorySecret: benchSecret, Model: "plug"}); err != nil {
			b.Fatal(err)
		}
		d, err := cloud.OpenDurable(b.TempDir(), design, registry, cloud.DurableOptions{
			WAL: wal.Options{Policy: wal.SyncGrouped},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = d.Close() })
		return d
	}
	b.Run("bare/inmemory", func(b *testing.B) {
		h := inMemory(b)
		register(b, h)
		loop(b, h, false)
	})
	b.Run("bare/wal-grouped", func(b *testing.B) {
		h := durable(b)
		register(b, h)
		loop(b, h, false)
	})
	b.Run("keyed/inmemory", func(b *testing.B) {
		h := inMemory(b)
		register(b, h)
		loop(b, h, true)
	})
	b.Run("keyed/wal-grouped", func(b *testing.B) {
		h := durable(b)
		register(b, h)
		loop(b, h, true)
	})
}

// BenchmarkDurableStatusParallel is the concurrency half of the
// durable-status story (EXPERIMENTS.md §BENCH_6): keyed — that is,
// logged — status messages from 8 and 16 concurrent clients across 32
// devices, comparing the in-memory service against a durable cloud
// funnelled through a single WAL shard and one with per-shard WALs.
// Per-shard is the acceptance bar: within 2× of in-memory at 16
// clients. The single-shard variant measures what the shard fan-out
// buys — every client serializes on one shard mutex and one log.
func BenchmarkDurableStatusParallel(b *testing.B) {
	design := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
	const devs = 32
	ids := make([]string, devs)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:00:98:%02X", i)
	}
	type handler interface {
		HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error)
	}
	newRegistry := func(b *testing.B) *iotbind.Registry {
		b.Helper()
		reg := iotbind.NewRegistry()
		for _, id := range ids {
			if err := reg.Add(iotbind.DeviceRecord{ID: id, FactorySecret: benchSecret, Model: "plug"}); err != nil {
				b.Fatal(err)
			}
		}
		return reg
	}
	registerAll := func(b *testing.B, h handler) {
		b.Helper()
		for _, id := range ids {
			if _, err := h.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
				b.Fatal(err)
			}
		}
	}
	run := func(b *testing.B, h handler, clients int) {
		b.Helper()
		par := clients / runtime.GOMAXPROCS(0)
		if par < 1 {
			par = 1
		}
		b.SetParallelism(par)
		var seq atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := seq.Add(1)
			id := ids[int(client)%devs]
			k := 0
			for pb.Next() {
				k++
				if _, err := h.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: id,
					IdempotencyKey: fmt.Sprintf("c%d-%d", client, k),
				}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	inMemory := func(b *testing.B) handler {
		b.Helper()
		svc, err := iotbind.NewCloud(design, newRegistry(b))
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	durable := func(b *testing.B, shards int) handler {
		b.Helper()
		d, err := cloud.OpenDurable(b.TempDir(), design, newRegistry(b), cloud.DurableOptions{
			WALShards: shards,
			WAL:       wal.Options{Policy: wal.SyncGrouped},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = d.Close() })
		return d
	}
	for _, clients := range []int{8, 16} {
		b.Run(fmt.Sprintf("keyed/inmemory/clients=%d", clients), func(b *testing.B) {
			h := inMemory(b)
			registerAll(b, h)
			run(b, h, clients)
		})
		b.Run(fmt.Sprintf("keyed/wal-1shard/clients=%d", clients), func(b *testing.B) {
			h := durable(b, 1)
			registerAll(b, h)
			run(b, h, clients)
		})
		b.Run(fmt.Sprintf("keyed/wal-sharded/clients=%d", clients), func(b *testing.B) {
			h := durable(b, 16)
			registerAll(b, h)
			run(b, h, clients)
		})
	}
}
