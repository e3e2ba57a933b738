package cloud

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// fleetIDs returns n device IDs for newFleetService.
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:00:01:%02X", i)
	}
	return ids
}

// newFleetService builds a cloud with the given devices registered and one
// logged-in user, returning the service and the user token.
func newFleetService(t *testing.T, design core.DesignSpec, ids []string, opts ...Option) (*Service, string) {
	t.Helper()
	reg := NewRegistry()
	for _, id := range ids {
		if err := reg.Add(DeviceRecord{ID: id, FactorySecret: "secret-" + id, Model: "plug"}); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(design, reg, append([]Option{WithClock(newTestClock().Now)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, loginUser(t, svc, "victim@example.com", "pw-victim")
}

// TestStatusBatchPerItemIsolation proves one bad item never poisons the
// rest of the batch: the envelope succeeds, each item carries its own
// outcome, and the per-item error vocabulary matches the single-message
// path exactly.
func TestStatusBatchPerItemIsolation(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())

	resp, err := svc.HandleStatusBatch(protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: testDevice},
		{DeviceID: testDevice}, // missing kind
		{Kind: protocol.StatusHeartbeat, DeviceID: "ghost"},
		{Kind: protocol.StatusHeartbeat, DeviceID: testDevice},
	}})
	if err != nil {
		t.Fatalf("batch envelope failed: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(resp.Results))
	}
	if err := resp.Results[0].Err(); err != nil {
		t.Errorf("item 0 = %v, want success", err)
	}
	if err := resp.Results[1].Err(); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("item 1 = %v, want ErrBadRequest", err)
	}
	if err := resp.Results[2].Err(); !errors.Is(err, protocol.ErrUnknownDevice) {
		t.Errorf("item 2 = %v, want ErrUnknownDevice", err)
	}
	if err := resp.Results[3].Err(); err != nil {
		t.Errorf("item 3 = %v, want success", err)
	}
	if got := shadowState(t, svc).State; got != core.StateOnline {
		t.Errorf("state = %v, want online despite the failed items", got)
	}

	st := svc.Stats()
	if st.StatusAccepted != 2 || st.StatusRejected != 2 {
		t.Errorf("accepted/rejected = %d/%d, want 2/2", st.StatusAccepted, st.StatusRejected)
	}
	if st.StatusBatches != 1 {
		t.Errorf("StatusBatches = %d, want 1", st.StatusBatches)
	}
	if got := resp.FirstError(); !errors.Is(got, protocol.ErrBadRequest) {
		t.Errorf("FirstError = %v, want the item-1 ErrBadRequest", got)
	}
}

// TestStatusBatchLeavesCallersItems: a request's slices are borrowed for
// the call, so the envelope's source address reaches each item's handling
// without being written into the caller's items.
func TestStatusBatchLeavesCallersItems(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	items := []protocol.StatusRequest{{Kind: protocol.StatusRegister, DeviceID: testDevice}}
	want := slices.Clone(items)
	resp, err := svc.HandleStatusBatch(protocol.StatusBatchRequest{Items: items, SourceIP: "203.0.113.9"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.FirstError(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, want) {
		t.Errorf("caller's items after the batch = %+v, want them unchanged %+v", items, want)
	}
	if sh, _ := svc.store.peek(testDevice); sh == nil || sh.deviceIP != "203.0.113.9" {
		t.Errorf("the registration did not record the envelope's source address")
	}
}

// TestStatusBatchRacesSingles: batches and single statuses racing on the
// same fresh devices make each shadow once, through the store's one get,
// and apply every item exactly once.
func TestStatusBatchRacesSingles(t *testing.T) {
	const workers, rounds = 4, 25
	ids := fleetIDs(6)
	svc, _ := newFleetService(t, devIDDesign(), ids)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				items := make([]protocol.StatusRequest, len(ids))
				for i, id := range ids {
					items[i] = protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id,
						Readings: []protocol.Reading{{Name: "power_w", Value: float64(w)}}}
				}
				if w%2 == 0 {
					resp, err := svc.HandleStatusBatch(protocol.StatusBatchRequest{Items: items})
					if err == nil {
						err = resp.FirstError()
					}
					if err != nil {
						t.Error(err)
						return
					}
					continue
				}
				for _, req := range items {
					if _, err := svc.HandleStatus(req); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := svc.Stats().StatusAccepted, int64(workers*rounds*len(ids)); got != want {
		t.Errorf("StatusAccepted = %d, want %d", got, want)
	}
	if got := svc.store.ids(); !reflect.DeepEqual(got, ids) {
		t.Errorf("store holds %v, want %v", got, ids)
	}
	for _, id := range ids {
		if sh, _ := svc.store.peek(id); len(sh.readings.buf) != workers*rounds {
			t.Errorf("device %s kept %d readings, want %d", id, len(sh.readings.buf), workers*rounds)
		}
	}
}

func TestStatusBatchEmpty(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	resp, err := svc.HandleStatusBatch(protocol.StatusBatchRequest{})
	if err != nil || len(resp.Results) != 0 {
		t.Errorf("empty batch = %+v, %v; want 0 results, nil error", resp, err)
	}
}

// TestStatusBatchRebatchingEquivalence is the batching correctness
// property: however a fixed message sequence is chopped into StatusBatch
// frames, every device ends in the same shadow state with the same
// transition trace, the same ingested readings, the same session nonce
// and the same item-level status counters as delivering the messages one
// by one.
func TestStatusBatchRebatchingEquivalence(t *testing.T) {
	const (
		nDev   = 5
		perDev = 20
	)
	design := devIDDesign()

	// buildSequence emits each device's register followed by round-robin
	// interleaved heartbeats, so almost every batch below spans several
	// devices (and usually several shards).
	buildSequence := func(ids []string) []protocol.StatusRequest {
		var seq []protocol.StatusRequest
		for _, id := range ids {
			seq = append(seq, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id})
		}
		for m := 0; m < perDev; m++ {
			for d, id := range ids {
				seq = append(seq, protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: id,
					Readings: []protocol.Reading{{Name: "power_w", Value: float64(m*nDev + d)}},
				})
			}
		}
		return seq
	}

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			refIDs, batIDs := fleetIDs(nDev), fleetIDs(nDev)
			ref, refUser := newFleetService(t, design, refIDs)
			bat, batUser := newFleetService(t, design, batIDs)
			for _, id := range refIDs {
				if _, err := ref.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: refUser, Sender: core.SenderApp}); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range batIDs {
				if _, err := bat.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: batUser, Sender: core.SenderApp}); err != nil {
					t.Fatal(err)
				}
			}

			// Reference: one message per call.
			for _, req := range buildSequence(refIDs) {
				if _, err := ref.HandleStatus(req); err != nil {
					t.Fatal(err)
				}
			}

			// Batched: the same sequence chopped at random boundaries.
			seq := buildSequence(batIDs)
			rng := rand.New(rand.NewSource(seed))
			for len(seq) > 0 {
				n := 1 + rng.Intn(7)
				if n > len(seq) {
					n = len(seq)
				}
				resp, err := bat.HandleStatusBatch(protocol.StatusBatchRequest{Items: seq[:n]})
				if err != nil {
					t.Fatal(err)
				}
				if err := resp.FirstError(); err != nil {
					t.Fatal(err)
				}
				seq = seq[n:]
			}

			for d := range refIDs {
				refSt, err := ref.ShadowState(protocol.ShadowStateRequest{DeviceID: refIDs[d]})
				if err != nil {
					t.Fatal(err)
				}
				batSt, err := bat.ShadowState(protocol.ShadowStateRequest{DeviceID: batIDs[d]})
				if err != nil {
					t.Fatal(err)
				}
				if refSt.State != batSt.State || refSt.BoundUser != batSt.BoundUser {
					t.Errorf("device %d shadow: batched %+v != sequential %+v", d, batSt, refSt)
				}

				refTr, batTr := ref.ShadowTrace(refIDs[d]), bat.ShadowTrace(batIDs[d])
				if len(refTr) != len(batTr) {
					t.Fatalf("device %d trace length: batched %d != sequential %d", d, len(batTr), len(refTr))
				}
				for i := range refTr {
					if refTr[i].Event != batTr[i].Event || refTr[i].From != batTr[i].From || refTr[i].To != batTr[i].To {
						t.Errorf("device %d trace[%d]: batched %+v != sequential %+v", d, i, batTr[i], refTr[i])
					}
				}

				refRd, err := ref.Readings(protocol.ReadingsRequest{DeviceID: refIDs[d], UserToken: refUser})
				if err != nil {
					t.Fatal(err)
				}
				batRd, err := bat.Readings(protocol.ReadingsRequest{DeviceID: batIDs[d], UserToken: batUser})
				if err != nil {
					t.Fatal(err)
				}
				if len(refRd.Readings) != len(batRd.Readings) {
					t.Fatalf("device %d readings: batched %d != sequential %d", d, len(batRd.Readings), len(refRd.Readings))
				}
				for i := range refRd.Readings {
					if refRd.Readings[i].Value != batRd.Readings[i].Value {
						t.Errorf("device %d reading %d: batched %v != sequential %v", d, i, batRd.Readings[i].Value, refRd.Readings[i].Value)
					}
				}
			}

			refStats, batStats := ref.Stats(), bat.Stats()
			if refStats.StatusAccepted != batStats.StatusAccepted || refStats.StatusRejected != batStats.StatusRejected {
				t.Errorf("item counters: batched %d/%d != sequential %d/%d",
					batStats.StatusAccepted, batStats.StatusRejected,
					refStats.StatusAccepted, refStats.StatusRejected)
			}
		})
	}

	// Under DataRequiresSession each register draws a session nonce off
	// the service's source, so a batch must draw in arrival order: two
	// devices on one store shard sandwich a device on another.
	t.Run("session-nonces", func(t *testing.T) {
		session := devIDDesign()
		session.DataRequiresSession = true
		counted := func() Option {
			n := 0
			return WithRandomHex(func() (string, error) { n++; return fmt.Sprintf("nonce-%d", n), nil })
		}
		shardOf := func(id string) uint32 { return fnv1a(id) & uint32(shardCount()-1) }
		var a, b, c string
		for i := 0; c == ""; i++ {
			switch id := fmt.Sprintf("AA:BB:CC:00:02:%03X", i); {
			case a == "":
				a = id
			case b == "" && shardOf(id) != shardOf(a):
				b = id
			case b != "" && shardOf(id) == shardOf(a):
				c = id
			}
		}
		ids := []string{a, b, c}
		ref, _ := newFleetService(t, session, ids, counted())
		bat, _ := newFleetService(t, session, ids, counted())
		seq := make([]protocol.StatusRequest, len(ids))
		for i, id := range ids {
			seq[i] = protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}
		}
		resp, err := bat.HandleStatusBatch(protocol.StatusBatchRequest{Items: seq})
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range seq {
			want, err := ref.HandleStatus(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Results[i]; got.Code != "" || !reflect.DeepEqual(got.Response, want) {
				t.Errorf("item %d (%s): batched %+v != sequential %+v", i, req.DeviceID, got, want)
			}
			refSh, _ := ref.store.peek(req.DeviceID)
			batSh, _ := bat.store.peek(req.DeviceID)
			if refSh.sessionNonce != batSh.sessionNonce {
				t.Errorf("device %s session nonce: batched %q != sequential %q", req.DeviceID, batSh.sessionNonce, refSh.sessionNonce)
			}
		}
	})
}

// TestStatusBatchIdempotentReplay proves a redelivered keyed batch is
// answered item-by-item from the replay log: the recorded responses come
// back verbatim (commands drained by the lost delivery are re-delivered),
// readings are not ingested twice, and the dedup counter reflects it.
func TestStatusBatchIdempotentReplay(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "turn_on"},
	}); err != nil {
		t.Fatal(err)
	}

	batch := protocol.StatusBatchRequest{Items: []protocol.StatusRequest{{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		Readings: []protocol.Reading{{Name: "power_w", Value: 7}},
	}}}
	first, err := svc.HandleStatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.FirstError(); err != nil {
		t.Fatal(err)
	}
	if cmds := first.Results[0].Response.Commands; len(cmds) != 1 || cmds[0].ID != "c1" {
		t.Fatalf("first delivery commands = %+v, want the queued c1", cmds)
	}

	// Redelivery of the identical batch (same keys, same payloads): the
	// response — including the drained command — is replayed, not recomputed.
	replay, err := svc.HandleStatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.FirstError(); err != nil {
		t.Fatal(err)
	}
	if cmds := replay.Results[0].Response.Commands; len(cmds) != 1 || cmds[0].ID != "c1" {
		t.Errorf("replayed commands = %+v, want c1 re-delivered", cmds)
	}
	if got := svc.Stats().StatusDeduplicated; got != 1 {
		t.Errorf("StatusDeduplicated = %d, want 1", got)
	}
	rd, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Readings) != 1 {
		t.Errorf("readings after redelivery = %d, want 1 (no double ingestion)", len(rd.Readings))
	}

	// The same key under a different payload is a conflict, not a replay:
	// a guessed key neither reads the recorded response nor executes.
	forged := protocol.StatusBatchRequest{Items: []protocol.StatusRequest{{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		Readings: []protocol.Reading{{Name: "power_w", Value: 9999}},
	}}}
	resp, err := svc.HandleStatusBatch(forged)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Err(); !errors.Is(got, protocol.ErrAuthFailed) {
		t.Errorf("key conflict = %v, want ErrAuthFailed", got)
	}
}
