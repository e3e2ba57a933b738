package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/vendors"
)

// opKind names what one timed operation was, so bind_churn can report a
// median per step of its cycle.
type opKind uint8

const (
	opStatus opKind = iota
	opBind
	opDelegate
	opControl
	opReadings
	opRevoke
	opUnbind
	opMatrix
	numKinds
)

var kindNames = [numKinds]string{"status", "bind", "delegate", "control", "readings", "revoke", "unbind", "matrix"}

// generator is one connection's request stream. The program under test
// sees only the requests it issues; the seed never reaches it.
type generator interface {
	// next issues the stream's next request against c.
	next(c transport.Cloud) (opKind, error)
	// atStart reports whether the generator's devices are back in the
	// state they started in (bind_churn: no cycle in progress).
	atStart() bool
}

// workload is one named traffic mix.
type workload struct {
	name   string
	why    string
	fleet  int  // devices; 0 means the workload has no serving stack
	bound  bool // fleet starts bound to the owner
	warmup int  // warm-up operations per run, split over the connections
	// windowOps is the size of one timed window in operations, over all
	// connections: a constant, so a run issues the same requests and grows
	// the same stores on every machine and commit, and per-operation
	// counts repeat exactly. It is about the seed commit's throughput on
	// the two-core sandbox × runSeconds ÷ windows; bind_churn's is a whole
	// number of six-step cycles per connection.
	windowOps int
	// newGen builds the generator for connection conn (of conns) over its
	// share of the fleet. stream distinguishes replays of the same
	// request stream so their idempotency keys never collide.
	newGen func(seed int64, stream string, conn int, ids []string, cr creds) generator
}

var workloads = []workload{
	{
		name: "heartbeat", fleet: 4096, bound: true, warmup: 20000, windowOps: 13000,
		why: "bare heartbeats take the unlogged liveness path, so nearly all of each op is binapi and the kernel socket path; WAL and replication changes must not move it",
		newGen: func(seed int64, stream string, conn int, ids []string, _ creds) generator {
			return newStatusGen(seed, stream, conn, ids, false)
		},
	},
	{
		name: "keyed_status", fleet: 4096, bound: true, warmup: 5000, windowOps: 2400,
		why: "keyed heartbeats with a reading are logged, shipped and applied on the replica before the ack: wal, cluster replication and cloud.Durable do about half of each op",
		newGen: func(seed int64, stream string, conn int, ids []string, _ creds) generator {
			return newStatusGen(seed, stream, conn, ids, true)
		},
	},
	{
		name: "bind_churn", fleet: 1024, bound: false, warmup: 1200, windowOps: 2640,
		why: "bind, delegate, control, delegated read, revoke, unbind per device: the cold lane (JSON envelope, Durable write lock, token and delegation) that a hot-lane gain must not tax",
		newGen: func(seed int64, stream string, conn int, ids []string, cr creds) generator {
			return newChurnGen(seed, stream, conn, ids, cr)
		},
	},
	{
		name: "attack_matrix", warmup: 250, windowOps: 170,
		why:    "regenerates the paper's result set (analysis, modelcheck, live A1-A4 on ten vendors): the analyst's wait, bypassing binapi, cluster and wal, so serving-path changes predict no change here",
		newGen: func(int64, string, int, []string, creds) generator { return newMatrixGen() },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// share returns connection conn's disjoint slice of the fleet in a
// seeded order.
func share(seed int64, conn int, ids []string) ([]string, *rand.Rand) {
	per := len(ids) / conns
	mine := append([]string(nil), ids[conn*per:(conn+1)*per]...)
	rng := rand.New(rand.NewSource(seed*conns + int64(conn)))
	rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	return mine, rng
}

// keyer mints unique idempotency keys: seed, stream and connection in
// the prefix, a counter behind it.
type keyer struct {
	buf []byte
	pre int
	n   uint64
}

func newKeyer(seed int64, stream string, conn int) keyer {
	buf := []byte(fmt.Sprintf("%s-%d-%d-", stream, seed, conn))
	return keyer{buf: buf, pre: len(buf)}
}

func (k *keyer) next() string {
	k.n++
	k.buf = strconv.AppendUint(k.buf[:k.pre], k.n, 10)
	return string(k.buf)
}

// statusGen walks its devices round-robin sending heartbeats: bare, or
// keyed with one reading.
type statusGen struct {
	ids   []string
	i     int
	keyed bool
	keys  keyer
	rng   *rand.Rand
}

func newStatusGen(seed int64, stream string, conn int, ids []string, keyed bool) *statusGen {
	mine, rng := share(seed, conn, ids)
	return &statusGen{ids: mine, keyed: keyed, keys: newKeyer(seed, stream, conn), rng: rng}
}

func (g *statusGen) next(c transport.Cloud) (opKind, error) {
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: g.ids[g.i], SourceIP: sourceIP}
	if g.i++; g.i == len(g.ids) {
		g.i = 0
	}
	if g.keyed {
		req.IdempotencyKey = g.keys.next()
		req.Readings = []protocol.Reading{{Name: "power_w", Value: g.rng.Float64() * 100, At: epoch}}
	}
	resp, err := c.HandleStatus(req)
	if err == nil && !resp.Bound {
		err = fmt.Errorf("heartbeat for %s answered unbound", req.DeviceID)
	}
	return opStatus, err
}

func (g *statusGen) atStart() bool { return true }

// churnGen runs the six-step ownership cycle on one device after
// another; each step is one timed operation.
type churnGen struct {
	ids   []string
	i     int
	step  opKind // next step of the current device's cycle
	cr    creds
	keys  keyer
	deleg string // the current cycle's delegation token
}

func newChurnGen(seed int64, stream string, conn int, ids []string, cr creds) *churnGen {
	mine, _ := share(seed, conn, ids)
	return &churnGen{ids: mine, step: opBind, cr: cr, keys: newKeyer(seed, stream, conn)}
}

func (g *churnGen) next(c transport.Cloud) (opKind, error) {
	id, step := g.ids[g.i], g.step
	var err error
	switch step {
	case opBind:
		var resp protocol.BindResponse
		resp, err = c.HandleBind(protocol.BindRequest{
			DeviceID: id, UserToken: g.cr.owner, Sender: core.SenderApp, SourceIP: sourceIP, IdempotencyKey: g.keys.next(),
		})
		if err == nil && resp.BoundUser != ownerID {
			err = fmt.Errorf("bind %s: bound to %q", id, resp.BoundUser)
		}
	case opDelegate:
		var resp protocol.DelegateResponse
		resp, err = c.HandleDelegate(protocol.DelegateRequest{
			DeviceID: id, UserToken: g.cr.owner, Grantee: guestID,
			Scopes: []string{"control", "read"}, TTLSeconds: 3600, IdempotencyKey: g.keys.next(),
		})
		g.deleg = resp.DelegationToken
	case opControl:
		var resp protocol.ControlResponse
		resp, err = c.HandleControl(protocol.ControlRequest{
			DeviceID: id, UserToken: g.cr.owner, SourceIP: sourceIP,
			Command: protocol.Command{ID: "c", Name: "turn_on"},
		})
		if err == nil && !resp.Queued {
			err = fmt.Errorf("control %s: not queued", id)
		}
	case opReadings:
		_, err = c.Readings(protocol.ReadingsRequest{DeviceID: id, UserToken: g.deleg})
	case opRevoke:
		err = c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
			DeviceID: id, UserToken: g.cr.owner, Grantee: guestID, IdempotencyKey: g.keys.next(),
		})
	case opUnbind:
		err = c.HandleUnbind(protocol.UnbindRequest{
			DeviceID: id, UserToken: g.cr.owner, Sender: core.SenderApp, SourceIP: sourceIP, IdempotencyKey: g.keys.next(),
		})
	}
	if g.step++; g.step > opUnbind {
		g.step = opBind
		if g.i++; g.i == len(g.ids) {
			g.i = 0
		}
	}
	return step, err
}

func (g *churnGen) atStart() bool { return g.step == opBind }

// matrixGen regenerates the paper's result set; one op is the whole
// set. It needs no cloud: the testbed builds its own in-process ones.
type matrixGen struct {
	designs  []core.DesignSpec // ten vendors, then the three references
	postures []core.DesignSpec // the reference delegation postures
	profiles []vendors.Profile

	// Per-call time and matched cells of the ops so far (the traced
	// run's spans around the four public calls).
	predict, check, evaluate time.Duration
	cells, matched, ops      int
}

func newMatrixGen() *matrixGen {
	g := &matrixGen{profiles: vendors.Profiles()}
	for _, p := range g.profiles {
		g.designs = append(g.designs, p.Design)
	}
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase()} {
		g.designs = append(g.designs, p.Design)
		g.postures = append(g.postures, p.Design)
	}
	return g
}

func (g *matrixGen) atStart() bool { return true }

func (g *matrixGen) next(transport.Cloud) (opKind, error) {
	cells, matched := 0, 0
	cell := func(ok bool) {
		cells++
		if ok {
			matched++
		}
	}

	t0 := time.Now()
	findings := analysis.PredictMany(g.designs)
	deleg := make([][]analysis.DelegationFinding, len(g.postures))
	for i, d := range g.postures {
		deleg[i] = analysis.PredictDelegation(d)
	}
	t1 := time.Now()

	// A1-A4: the model checker's property verdicts against the
	// analyzer's per-variant predictions, cell for cell.
	for i, d := range g.designs {
		results, err := modelcheck.Check(d)
		if err != nil {
			return opMatrix, err
		}
		pred := make(map[core.AttackVariant]bool, len(findings[i]))
		for _, f := range findings[i] {
			pred[f.Variant] = f.Outcome == core.OutcomeSucceeded
		}
		hijack := pred[core.VariantA4x1] || pred[core.VariantA4x3]
		violated := map[modelcheck.Property]bool{
			modelcheck.PropNoHijack: hijack,
			modelcheck.PropBindingPreserved: pred[core.VariantA3x1] || pred[core.VariantA3x2] ||
				pred[core.VariantA3x3] || pred[core.VariantA3x4] || hijack,
			modelcheck.PropNoDataTheft:     pred[core.VariantA1],
			modelcheck.PropNoDataInjection: pred[core.VariantA1],
			modelcheck.PropVictimCanBind:   pred[core.VariantA2],
		}
		for _, r := range results {
			want, known := violated[r.Property]
			cell(known && r.Holds != want)
		}
	}
	// A6: the delegation sub-model against the analyzer's A6 rows.
	for i, d := range g.postures {
		results, err := modelcheck.CheckDelegation(d)
		if err != nil {
			return opMatrix, err
		}
		if len(results) != len(deleg[i]) {
			return opMatrix, fmt.Errorf("%s: %d A6 rows in the model, %d in the analyzer", d.Name, len(results), len(deleg[i]))
		}
		for j, r := range results {
			f := deleg[i][j]
			cell(r.Attack == f.Attack && r.Succeeds == f.Outcome.Succeeded())
		}
	}
	t2 := time.Now()

	// Table III: live A1-A4 on every vendor, against the published row.
	rows, err := testbed.EvaluateVendors(g.profiles)
	if err != nil {
		return opMatrix, err
	}
	for _, vr := range rows {
		cell(testbed.MatchesPaper(vr.Row, vr.Profile.Paper))
	}
	t3 := time.Now()

	g.predict += t1.Sub(t0)
	g.check += t2.Sub(t1)
	g.evaluate += t3.Sub(t2)
	g.cells, g.matched = g.cells+cells, g.matched+matched
	g.ops++
	if matched != cells {
		return opMatrix, fmt.Errorf("attack matrix: %d of %d cells match", matched, cells)
	}
	return opMatrix, nil
}
