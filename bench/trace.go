package main

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// The three seams the benchmark can interpose on from outside, outermost
// first: around the binapi.Client call, between binapi.Server and
// cluster.Router, between transport.Switchable and cluster.Node. Below
// the node seam there is no public interposition point; the rung ladder
// (ladder.go) covers that part.
var seamNames = []string{"client", "router", "node"}

const (
	seamClient = iota
	seamRouter
	seamNode
)

// rawSpan is what a decorator writes on the request path: no
// allocation and no lookup, one short lock. Request identity and parent
// links are worked out when the run has ended (recorder.join).
type rawSpan struct {
	seam       uint8
	kind       opKind
	dev, key   string
	start, end time.Duration // since recorder.t0
}

// recorder keeps spans in a preallocated slice and writes them out only
// when the run ends. Spans are recorded only while on is set, so set-up
// and warm-up leave none.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	spans   []rawSpan // len grows to the preallocated cap, never past it
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]rawSpan, 0, capacity)}
}

func (r *recorder) add(seam uint8, kind opKind, dev, key string, start time.Time) {
	if !r.on.Load() {
		return
	}
	s := rawSpan{seam: seam, kind: kind, dev: dev, key: key, start: start.Sub(r.t0), end: time.Since(r.t0)}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// wrap is the seamWrap that puts a recording decorator on every seam.
func (r *recorder) wrap(seam string, c transport.Cloud) transport.Cloud {
	for i, name := range seamNames {
		if name == seam {
			return &spanCloud{Cloud: c, rec: r, seam: uint8(i)}
		}
	}
	return c
}

// spanCloud records a span around each operation the workloads issue
// and passes everything else straight through.
type spanCloud struct {
	transport.Cloud
	rec  *recorder
	seam uint8
}

func (s *spanCloud) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	t := time.Now()
	resp, err := s.Cloud.HandleStatus(req)
	s.rec.add(s.seam, opStatus, req.DeviceID, req.IdempotencyKey, t)
	return resp, err
}

func (s *spanCloud) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	t := time.Now()
	resp, err := s.Cloud.HandleBind(req)
	s.rec.add(s.seam, opBind, req.DeviceID, req.IdempotencyKey, t)
	return resp, err
}

func (s *spanCloud) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	t := time.Now()
	resp, err := s.Cloud.HandleDelegate(req)
	s.rec.add(s.seam, opDelegate, req.DeviceID, req.IdempotencyKey, t)
	return resp, err
}

func (s *spanCloud) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	t := time.Now()
	resp, err := s.Cloud.HandleControl(req)
	s.rec.add(s.seam, opControl, req.DeviceID, "", t)
	return resp, err
}

func (s *spanCloud) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	t := time.Now()
	resp, err := s.Cloud.Readings(req)
	s.rec.add(s.seam, opReadings, req.DeviceID, "", t)
	return resp, err
}

func (s *spanCloud) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	t := time.Now()
	err := s.Cloud.HandleRevokeDelegation(req)
	s.rec.add(s.seam, opRevoke, req.DeviceID, req.IdempotencyKey, t)
	return err
}

func (s *spanCloud) HandleUnbind(req protocol.UnbindRequest) error {
	t := time.Now()
	err := s.Cloud.HandleUnbind(req)
	s.rec.add(s.seam, opUnbind, req.DeviceID, req.IdempotencyKey, t)
	return err
}

// span is one joined span as written out: spans of one request share
// Request, and Parent is the index of the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Request string `json:"request"`
	Parent  int    `json:"parent"` // -1 for a client span
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// join gives every span its request identifier — the idempotency key,
// or device ID plus per-device sequence for unkeyed operations (one
// request in flight per connection, each connection owning its devices,
// makes the nth unkeyed span of a device at every seam the same
// request) — and links each to its parent one seam out.
func (r *recorder) join() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.spans))
	type seamDev struct {
		seam uint8
		dev  string
	}
	seq := make(map[seamDev]int)
	bySeam := make([]map[string]int, len(seamNames))
	for i := range bySeam {
		bySeam[i] = make(map[string]int)
	}
	for i, rs := range r.spans {
		id := rs.key
		if id == "" {
			k := seamDev{rs.seam, rs.dev}
			seq[k]++
			id = rs.dev + "#" + strconv.Itoa(seq[k])
		}
		out[i] = span{
			Name: seamNames[rs.seam], Kind: kindNames[rs.kind], Request: id,
			Parent: -1, StartNS: int64(rs.start), EndNS: int64(rs.end),
		}
		bySeam[rs.seam][id] = i
	}
	for i := range out {
		if seam := r.spans[i].seam; seam > seamClient {
			if p, ok := bySeam[seam-1][out[i].Request]; ok {
				out[i].Parent = p
			}
		}
	}
	return out
}

// seamTimes is the mean self time at each seam over the complete
// requests of a traced window: a span minus its child.
type seamTimes struct {
	requests   int
	client     time.Duration // mean client-call span
	frontSelf  time.Duration // client span − router span: binapi both ways plus the kernel socket path
	routerSelf time.Duration // router span − node span: ring lookup and the Switchable hop
	node       time.Duration // node span: everything below the last seam
}

func selfTimes(spans []span) seamTimes {
	child := make(map[int]int, len(spans)) // parent index → child index
	for i, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] = i
		}
	}
	var st seamTimes
	for i, s := range spans {
		if s.Name != seamNames[seamClient] {
			continue
		}
		ri, ok := child[i]
		if !ok {
			continue
		}
		ni, ok := child[ri]
		if !ok {
			continue
		}
		st.requests++
		st.client += s.dur()
		st.frontSelf += s.dur() - spans[ri].dur()
		st.routerSelf += spans[ri].dur() - spans[ni].dur()
		st.node += spans[ni].dur()
	}
	if st.requests > 0 {
		n := time.Duration(st.requests)
		st.client, st.frontSelf, st.routerSelf, st.node = st.client/n, st.frontSelf/n, st.routerSelf/n, st.node/n
	}
	return st
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
