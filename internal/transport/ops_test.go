package transport

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
)

// recorder is a RoundTripper that notes what it was asked to carry. A
// JSONLane over it is the recording fake cloud of these tests: every
// Cloud method lands here with its Op and its request value.
type recorder struct {
	calls int
	op    Op
	req   any
}

func (r *recorder) RoundTrip(op Op, req, _ any) error {
	r.calls++
	r.op, r.req = op, req
	return nil
}

// passHop admits every call to one backend and notes the Op it saw.
type passHop struct {
	backend Cloud
	began   []Op
	ended   []Op
}

func (h *passHop) Begin(op Op, _ string) (Cloud, error) {
	h.began = append(h.began, op)
	return h.backend, nil
}

func (h *passHop) End(op Op, err error) error {
	h.ended = append(h.ended, op)
	return err
}

// callZero invokes the named method of a Cloud with the zero request.
func callZero(t *testing.T, c Cloud, method string) {
	t.Helper()
	m := reflect.ValueOf(c).MethodByName(method)
	if !m.IsValid() {
		t.Fatalf("%T has no method %s", c, method)
	}
	m.Call([]reflect.Value{reflect.Zero(m.Type().In(0))})
}

// TestOpsComplete walks the Cloud interface by reflection: every method
// has exactly one Op, one Ops row, one JSONLane method and one Hopped
// method, all agreeing on which operation it is, and the row's Serve
// delivers a zero request to that method — stamped exactly when the
// request type carries a SourceIP, the same rule StampSource follows. An
// operation added to the interface without one of them fails here, by
// name.
func TestOpsComplete(t *testing.T) {
	cloudType := reflect.TypeOf((*Cloud)(nil)).Elem()
	if cloudType.NumMethod() != len(Ops) {
		t.Errorf("Cloud has %d methods, the Ops table %d rows", cloudType.NumMethod(), len(Ops))
	}
	seenName := map[string]Op{}
	for i, row := range Ops {
		op := Op(i)
		if row.Name == "" || row.Serve == nil {
			t.Errorf("Ops[%d] is incomplete: %+v", i, row)
			continue
		}
		if prev, dup := seenName[row.Name]; dup {
			t.Errorf("Ops[%d] and Ops[%d] share the wire name %q", prev, i, row.Name)
		}
		seenName[row.Name] = op
		if op.String() != row.Name {
			t.Errorf("Op(%d).String() = %q, its row says %q", i, op, row.Name)
		}
	}

	const ip = "203.0.113.9"
	methodOf := map[Op]string{}
	for i := 0; i < cloudType.NumMethod(); i++ {
		method := cloudType.Method(i)
		reqType := method.Type.In(0)
		_, wantStamp := reqType.FieldByName("SourceIP")

		// JSONLane: the method makes one round trip, under an Op no other
		// method uses. That Op names the method's row.
		rec := &recorder{}
		callZero(t, NewJSONLane(rec), method.Name)
		op := rec.op
		if rec.calls != 1 || int(op) >= len(Ops) {
			t.Errorf("JSONLane.%s made %d round trips as Op(%d); the table has %d rows", method.Name, rec.calls, op, len(Ops))
			continue
		}
		if other, dup := methodOf[op]; dup {
			t.Errorf("Cloud.%s and Cloud.%s share Op %q", other, method.Name, op)
		}
		methodOf[op] = method.Name

		// Hopped: one Begin and one End under the method's Op, the
		// backend called once with the same method.
		rec = &recorder{}
		hop := &passHop{backend: NewJSONLane(rec)}
		callZero(t, NewHopped(hop), method.Name)
		if !reflect.DeepEqual(hop.began, []Op{op}) || !reflect.DeepEqual(hop.ended, []Op{op}) {
			t.Errorf("Hopped.%s: Begin saw %v, End saw %v, want one %q each", method.Name, hop.began, hop.ended, op)
		}
		if rec.calls != 1 || rec.op != op {
			t.Errorf("Hopped.%s reached the backend %d times as %q, want 1 as %q", method.Name, rec.calls, rec.op, op)
		}

		// The row: a zero request reaches the method of the row's name,
		// stamped iff the request type has a SourceIP.
		rec = &recorder{}
		resp, err := Ops[op].Serve(NewJSONLane(rec), nil, ip)
		if err != nil || resp == nil {
			t.Errorf("Ops[%q].Serve = %v, %v, want a response", op, resp, err)
		}
		if rec.calls != 1 || rec.op != op || reflect.TypeOf(rec.req) != reqType {
			t.Errorf("Ops[%q].Serve reached the cloud %d times as %q with a %T, want Cloud.%s(%v)",
				op, rec.calls, rec.op, rec.req, method.Name, reqType)
			continue
		}
		stamped := func(req any) bool {
			f := reflect.ValueOf(req).FieldByName("SourceIP")
			return f.IsValid() && f.String() == ip
		}
		if stamped(rec.req) != wantStamp {
			t.Errorf("Ops[%q].Serve stamped = %v, but %v carrying a SourceIP is %v", op, !wantStamp, reqType, wantStamp)
		}
		if _, err := Ops[op].Serve(NewJSONLane(rec), []byte(`[`), ip); !errors.Is(err, protocol.ErrBadRequest) || err.Error() != "malformed payload" {
			t.Errorf("Ops[%q].Serve on malformed JSON = %v, want bad_request \"malformed payload\"", op, err)
		}

		rec = &recorder{}
		callZero(t, StampSource(NewJSONLane(rec), ip), method.Name)
		if stamped(rec.req) != wantStamp {
			t.Errorf("StampSource(...).%s stamped = %v, but %v carrying a SourceIP is %v", method.Name, !wantStamp, reqType, wantStamp)
		}
	}
}

// TestHoppedEndDecidesTheOutcome pins how Hopped combines the backend's
// result with End's verdict: a refusal by Begin never reaches the
// backend or End, an End failure after a completed call discards the
// response, and a backend failure passes through with its response.
func TestHoppedEndDecidesTheOutcome(t *testing.T) {
	refused := errors.New("refused")
	h := NewHopped(hopFuncs{begin: func() (Cloud, error) { return nil, refused }})
	if _, err := h.Login(protocol.LoginRequest{}); !errors.Is(err, refused) {
		t.Fatalf("refused call = %v, want the Begin error", err)
	}

	lost := errors.New("response lost")
	backend := loginCloud{resp: protocol.LoginResponse{UserToken: "tok"}}
	h = NewHopped(hopFuncs{
		begin: func() (Cloud, error) { return backend, nil },
		end:   func(error) error { return lost },
	})
	if resp, err := h.Login(protocol.LoginRequest{}); !errors.Is(err, lost) || resp.UserToken != "" {
		t.Fatalf("End-failed call = %+v, %v, want a zero response and the End error", resp, err)
	}

	backend.err = protocol.ErrAuthFailed
	h = NewHopped(hopFuncs{
		begin: func() (Cloud, error) { return backend, nil },
		end:   func(err error) error { return err },
	})
	if resp, err := h.Login(protocol.LoginRequest{}); !errors.Is(err, protocol.ErrAuthFailed) || resp.UserToken != "tok" {
		t.Fatalf("backend-failed call = %+v, %v, want the backend's response and error", resp, err)
	}
}

type hopFuncs struct {
	begin func() (Cloud, error)
	end   func(error) error
}

func (h hopFuncs) Begin(Op, string) (Cloud, error) { return h.begin() }
func (h hopFuncs) End(_ Op, err error) error       { return h.end(err) }

// loginCloud answers Login; every other method panics through the nil
// embedded interface.
type loginCloud struct {
	Cloud
	resp protocol.LoginResponse
	err  error
}

func (c loginCloud) Login(protocol.LoginRequest) (protocol.LoginResponse, error) {
	return c.resp, c.err
}

// noopCloud answers a status with the zero response.
type noopCloud struct{ Cloud }

func (noopCloud) HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error) {
	return protocol.StatusResponse{}, nil
}

// keyedHop picks a backend by routing key, as cluster.Router does.
type keyedHop struct{ members map[string]Cloud }

func (h keyedHop) Begin(_ Op, key string) (Cloud, error) { return h.members[key], nil }
func (h keyedHop) End(_ Op, err error) error             { return err }

// lockedHop holds a read lock across the call, as cluster.Node does.
type lockedHop struct {
	mu      *sync.RWMutex
	backend Cloud
}

func (h lockedHop) Begin(Op, string) (Cloud, error) {
	h.mu.RLock()
	return h.backend, nil
}

func (h lockedHop) End(_ Op, err error) error {
	h.mu.RUnlock()
	return err
}

// TestHoppedLayersAllocateNothing is the serving-path bar the typed seam
// exists for: a bare status through the composed stack's three forwarding
// layers — router-shaped, Switchable, node-shaped — costs no allocation,
// so bench/'s allocs_per_op cannot see them.
func TestHoppedLayersAllocateNothing(t *testing.T) {
	const id = "AA:BB:CC:00:00:01"
	var mu sync.RWMutex
	node := NewHopped(lockedHop{mu: &mu, backend: noopCloud{}})
	router := NewHopped(keyedHop{members: map[string]Cloud{id: NewSwitchable(node)}})
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := router.HandleStatus(req); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("HandleStatus through three Hopped layers = %.1f allocs/op, want 0", avg)
	}
}
