package testbed

import (
	"runtime"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/binapi"
)

// connSmokeConns keeps the unit-test scale modest; the 100k-connection
// headline run lives in the root benchmark suite (BenchmarkConnLoad).
func connSmokeConns() int {
	if raceEnabled {
		return 300
	}
	return 2000
}

func TestConnLoadPipe(t *testing.T) {
	conns := connSmokeConns()
	res, err := RunConnLoad(ConnLoadConfig{Conns: conns, MsgsPerConn: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != conns*3 {
		t.Fatalf("messages = %d, want %d", res.Messages, conns*3)
	}
	if res.MsgsPerSec <= 0 || res.P99Micros <= 0 || res.BytesPerConn <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	// The architecture claim: goroutines scale with workers, not
	// connections, and the server spends none on pipes. Allow generous
	// slack for test-runner goroutines.
	if limit := res.Conns/4 + 200; res.Goroutines >= limit {
		t.Fatalf("goroutines = %d with %d pipe conns: per-connection goroutines crept in",
			res.Goroutines, res.Conns)
	}
	if res.ServerGoroutines != 0 {
		t.Fatalf("server goroutines = %d with %d pipe conns, want 0", res.ServerGoroutines, res.Conns)
	}
}

func TestConnLoadSocket(t *testing.T) {
	conns := 200
	if raceEnabled {
		conns = 50
	}
	res, err := RunConnLoad(ConnLoadConfig{
		Conns: conns, MsgsPerConn: 3, Mode: ConnLoadSocket,
		Workers: 4 * runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != conns*3 {
		t.Fatalf("messages = %d, want %d", res.Messages, conns*3)
	}
	if res.MsgsPerSec <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

// TestConnLoadSocketEpoll is the raw-epoll readiness smoke: real
// sockets, and the server's own goroutine count must stay at its
// pollers — at most GOMAXPROCS, not O(conns) — while every connection is
// open.
func TestConnLoadSocketEpoll(t *testing.T) {
	if !binapi.EpollSupported() {
		t.Skip("raw-epoll readiness source requires linux")
	}
	conns := 400
	if raceEnabled {
		conns = 100
	}
	res, err := RunConnLoad(ConnLoadConfig{
		Conns: conns, MsgsPerConn: 3, Mode: ConnLoadSocket,
		Workers:   4 * runtime.GOMAXPROCS(0),
		Readiness: binapi.ReadinessEpoll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Readiness != "epoll" {
		t.Fatalf("readiness = %q, want epoll", res.Readiness)
	}
	if res.Messages != conns*3 {
		t.Fatalf("messages = %d, want %d", res.Messages, conns*3)
	}
	// Server goroutines are the pollers, regardless of connection count.
	if limit := runtime.GOMAXPROCS(0); res.ServerGoroutines < 1 || res.ServerGoroutines > limit {
		t.Fatalf("server goroutines = %d with %d epoll conns, want 1..%d pollers: per-connection goroutines crept in",
			res.ServerGoroutines, res.Conns, limit)
	}
}

// TestConnLoadSocketPump pins the fallback readiness source and checks
// its server-goroutine accounting scales with connections (one pump
// goroutine each) — the before-side of the epoll comparison — while the
// clients' does not. 300 connections put a goroutine per client over
// the bound below.
func TestConnLoadSocketPump(t *testing.T) {
	conns := 300
	if raceEnabled {
		conns = 40
	}
	res, err := RunConnLoad(ConnLoadConfig{
		Conns: conns, MsgsPerConn: 2, Mode: ConnLoadSocket,
		Workers:   2 * runtime.GOMAXPROCS(0),
		Readiness: binapi.ReadinessPump,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Readiness != "pump" {
		t.Fatalf("readiness = %q, want pump", res.Readiness)
	}
	if res.ServerGoroutines < conns {
		t.Fatalf("server goroutines = %d with %d pump conns, want ≥ conns", res.ServerGoroutines, conns)
	}
	// The clients spend none per connection either: a Dial'd client's
	// caller reads its own response.
	if client, limit := res.Goroutines-res.ServerGoroutines, res.Conns/4+200; client >= limit {
		t.Fatalf("client goroutines = %d with %d socket conns: per-connection goroutines crept in", client, res.Conns)
	}
}

// TestConnLoadSocketRefusesPastOneListener pins the socket-mode ceiling:
// a run one listener's ephemeral-port range cannot hold is refused up
// front, by name, instead of exhausting ports mid-dial.
func TestConnLoadSocketRefusesPastOneListener(t *testing.T) {
	_, err := RunConnLoad(ConnLoadConfig{Conns: maxSocketConns + 1, Mode: ConnLoadSocket})
	if err == nil || !strings.Contains(err.Error(), "single-listener limit") {
		t.Fatalf("oversized socket run = %v, want a refusal naming the single-listener limit", err)
	}
}
