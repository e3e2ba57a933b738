package iotbind_test

// Benchmarks for the binapi binary front end (BENCH_8.json):
//
//	BenchmarkBinStatus — one heartbeat round trip through the
//	  multiplexed binary protocol, pipe mode (in-process) and socket
//	  mode (real loopback TCP).
//	BenchmarkConnLoad — fleet-scale connection runs: 100k concurrent
//	  pipe connections and pump-vs-epoll socket rungs at 2k and 9k
//	  (BENCH_9), reporting msgs/s, latency percentiles, bytes/conn, the
//	  process goroutine count and the server's own goroutine count (the
//	  readiness-source proof). A socket rung skips when the fd limit
//	  cannot be raised to 2×conns or the platform has no epoll.

import (
	"net"
	"testing"

	iotbind "github.com/iotbind/iotbind"
)

// benchBinPipeClient stands up the binary front end around a one-device
// cloud with an in-process pipe connection.
func benchBinPipeClient(b *testing.B) (*iotbind.BinClient, func()) {
	b.Helper()
	svc, _ := benchCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp))
	server := iotbind.NewBinServer(svc)
	client, err := server.Pipe("127.0.0.1")
	if err != nil {
		b.Fatal(err)
	}
	return client, func() {
		_ = client.Close()
		_ = server.Close()
	}
}

// benchBinSocketClient stands up the binary front end over loopback TCP.
func benchBinSocketClient(b *testing.B) (*iotbind.BinClient, func()) {
	b.Helper()
	svc, _ := benchCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp))
	server := iotbind.NewBinServer(svc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = server.Serve(l)
	}()
	client, err := iotbind.DialBin(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	return client, func() {
		_ = client.Close()
		_ = server.Close()
		<-done
	}
}

// BenchmarkBinStatus is the single-message headline: the same heartbeat
// as BenchmarkHTTPStatusRoundTrip, through binary frames instead of JSON
// over HTTP.
func BenchmarkBinStatus(b *testing.B) {
	fronts := []struct {
		name  string
		setup func(*testing.B) (*iotbind.BinClient, func())
	}{
		{"pipe", benchBinPipeClient},
		{"socket", benchBinSocketClient},
	}
	for _, fe := range fronts {
		fe := fe
		b.Run(fe.name, func(b *testing.B) {
			client, closeFE := fe.setup(b)
			defer closeFE()
			req := iotbind.StatusRequest{Kind: iotbind.StatusHeartbeat, DeviceID: benchDeviceID}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.HandleStatus(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkConnLoad runs the connection-scale harness once per
// invocation (the metrics of interest — conns, msgs/s, p99 — are
// fleet-scale properties of one run, not per-iteration timings; the
// b.N loop is deliberately empty).
func BenchmarkConnLoad(b *testing.B) {
	runs := []struct {
		name string
		cfg  iotbind.ConnLoadConfig
	}{
		{"pipe100k", iotbind.ConnLoadConfig{Conns: 100_000, MsgsPerConn: 5, Mode: iotbind.ConnLoadPipe}},
		{"socket2k-pump", iotbind.ConnLoadConfig{Conns: 2_000, MsgsPerConn: 5, Mode: iotbind.ConnLoadSocket,
			Readiness: iotbind.BinReadinessPump}},
		{"socket2k-epoll", iotbind.ConnLoadConfig{Conns: 2_000, MsgsPerConn: 5, Mode: iotbind.ConnLoadSocket,
			Readiness: iotbind.BinReadinessEpoll}},
		{"socket9k-pump", iotbind.ConnLoadConfig{Conns: 9_000, MsgsPerConn: 5, Mode: iotbind.ConnLoadSocket,
			Readiness: iotbind.BinReadinessPump}},
		{"socket9k-epoll", iotbind.ConnLoadConfig{Conns: 9_000, MsgsPerConn: 5, Mode: iotbind.ConnLoadSocket,
			Readiness: iotbind.BinReadinessEpoll}},
	}
	for _, run := range runs {
		run := run
		b.Run(run.name, func(b *testing.B) {
			if run.cfg.Readiness == iotbind.BinReadinessEpoll && !iotbind.BinEpollSupported() {
				b.Skip("raw-epoll readiness source requires linux")
			}
			if run.cfg.Mode == iotbind.ConnLoadSocket && !iotbind.EnsureFDLimit(2*run.cfg.Conns+512) {
				b.Skipf("cannot raise fd limit to %d", 2*run.cfg.Conns+512)
			}
			res, err := iotbind.RunConnLoad(run.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Conns != run.cfg.Conns || res.Messages != run.cfg.Conns*run.cfg.MsgsPerConn {
				b.Fatalf("incomplete run: %+v", res)
			}
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(res.Conns), "conns")
			b.ReportMetric(res.MsgsPerSec, "msgs/s")
			b.ReportMetric(res.P50Micros, "p50-µs")
			b.ReportMetric(res.P99Micros, "p99-µs")
			b.ReportMetric(res.BytesPerConn, "bytes/conn")
			b.ReportMetric(float64(res.Goroutines), "goroutines")
			b.ReportMetric(float64(res.ServerGoroutines), "srv-goroutines")
		})
	}
}
