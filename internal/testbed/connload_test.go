package testbed

import (
	"runtime"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/binapi"
)

// connSmokeConns keeps the unit-test scale modest; the 100k-connection
// headline run lives in the root benchmark suite (BenchmarkConnLoad)
// and `make conn-smoke`.
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
	// The architecture claim: goroutines scale with workers+stripes, not
	// connections. Allow generous slack for test-runner goroutines.
	if limit := res.Conns/4 + 200; res.Goroutines >= limit {
		t.Fatalf("goroutines = %d with %d pipe conns (stripes=%d): per-connection goroutines crept in",
			res.Goroutines, res.Conns, res.Stripes)
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
// sockets, and the server's own goroutine count must stay at
// stripes + pollers — not O(conns) — while every connection is open.
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
	// The tentpole claim: server goroutines = stripes + one poller per
	// active stripe, regardless of connection count.
	if limit := 2*res.Stripes + 2; res.ServerGoroutines > limit {
		t.Fatalf("server goroutines = %d with %d epoll conns (stripes=%d): per-connection goroutines crept in",
			res.ServerGoroutines, res.Conns, res.Stripes)
	}
}

// TestConnLoadSocketPump pins the fallback readiness source and checks
// its server-goroutine accounting scales with connections (one pump
// goroutine each) — the before-side of the epoll comparison.
func TestConnLoadSocketPump(t *testing.T) {
	conns := 100
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
