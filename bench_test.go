package iotbind_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the index):
//
//	BenchmarkFig2StateMachine    — Figure 2: shadow transition throughput
//	BenchmarkFig3DeviceAuth      — Figure 3: status handling per auth design
//	BenchmarkFig4BindingCreation — Figure 4: bind/unbind cycle per mechanism
//	BenchmarkTable2Analysis      — Table II: taxonomy derivation + prediction
//	BenchmarkTable3Evaluation    — Table III: full live attack suite per vendor
//	BenchmarkDevIDEnumeration    — Sections I/V-C: forged-probe rate per ID scheme
//	BenchmarkAblationPolicyFlags — DESIGN.md ablations: one policy flag at a time
//	BenchmarkSecureVsInsecure    — Section IV assessments: reference designs
//	BenchmarkHTTPStatusRoundTrip — the HTTP front end's per-message cost
//
// Outcome-style benchmarks attach an "attacks-ok" metric: the number of
// Table II variants that succeed against the design under test, so the
// security result is visible next to the timing.

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	iotbind "github.com/iotbind/iotbind"
	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
)

const (
	benchDeviceID = "AA:BB:CC:00:99:01"
	benchSecret   = "bench-factory-secret"
)

func benchDesign(auth core.DeviceAuthMode, mech core.BindMechanism) iotbind.DesignSpec {
	return iotbind.DesignSpec{
		Name:                   "bench",
		DeviceAuth:             auth,
		Binding:                mech,
		UnbindForms:            []iotbind.UnbindForm{iotbind.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

// benchCloud builds a cloud with one device and one logged-in user.
func benchCloud(b *testing.B, design iotbind.DesignSpec) (*iotbind.Cloud, string) {
	b.Helper()
	registry := iotbind.NewRegistry()
	if err := registry.Add(iotbind.DeviceRecord{ID: benchDeviceID, FactorySecret: benchSecret, Model: "plug"}); err != nil {
		b.Fatal(err)
	}
	svc, err := iotbind.NewCloud(design, registry)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.RegisterUser(iotbind.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		b.Fatal(err)
	}
	login, err := svc.Login(iotbind.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		b.Fatal(err)
	}
	return svc, login.UserToken
}

// BenchmarkFig2StateMachine measures the raw transition function plus a
// full initial->online->control->online->initial walk.
func BenchmarkFig2StateMachine(b *testing.B) {
	b.Run("Next", func(b *testing.B) {
		states := []core.ShadowState{core.StateInitial, core.StateOnline, core.StateControl, core.StateBound}
		events := []core.Event{core.EventStatus, core.EventStatusExpire, core.EventBind, core.EventUnbind}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = core.Next(states[i%4], events[(i/4)%4])
		}
	})
	b.Run("LifecycleWalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := core.NewMachine()
			_, _ = m.Apply(core.EventStatus)
			_, _ = m.Apply(core.EventBind)
			_, _ = m.Apply(core.EventUnbind)
			_, _ = m.Apply(core.EventStatusExpire)
		}
	})
}

// BenchmarkFig3DeviceAuth measures status-message handling under each
// device-authentication design of Figure 3.
func BenchmarkFig3DeviceAuth(b *testing.B) {
	b.Run("DevId", func(b *testing.B) {
		svc, _ := benchCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp))
		req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: benchDeviceID}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DevToken", func(b *testing.B) {
		design := benchDesign(core.AuthDevToken, iotbind.BindACLApp)
		svc, userToken := benchCloud(b, design)
		tok, err := svc.RequestDeviceToken(protocol.DeviceTokenRequest{
			UserToken:    userToken,
			DeviceID:     benchDeviceID,
			PairingProof: protocol.PairingProof(benchSecret, benchDeviceID),
		})
		if err != nil {
			b.Fatal(err)
		}
		req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: benchDeviceID, DevToken: tok.DevToken}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PublicKey", func(b *testing.B) {
		svc, _ := benchCloud(b, benchDesign(core.AuthPublicKey, iotbind.BindACLApp))
		req := protocol.StatusRequest{
			Kind:      protocol.StatusHeartbeat,
			DeviceID:  benchDeviceID,
			Signature: protocol.StatusSignature(benchSecret, benchDeviceID, protocol.StatusHeartbeat),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4BindingCreation measures one bind+unbind cycle under each
// binding mechanism of Figure 4.
func BenchmarkFig4BindingCreation(b *testing.B) {
	b.Run("ACLApp", func(b *testing.B) {
		svc, userToken := benchCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: benchDeviceID, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
			if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: benchDeviceID, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ACLDevice", func(b *testing.B) {
		svc, userToken := benchCloud(b, benchDesign(iotbind.AuthDevID, core.BindACLDevice))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.HandleBind(protocol.BindRequest{
				DeviceID: benchDeviceID, UserID: "u@example.com", UserPassword: "pw",
			}); err != nil {
				b.Fatal(err)
			}
			if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: benchDeviceID, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Capability", func(b *testing.B) {
		svc, userToken := benchCloud(b, benchDesign(iotbind.AuthDevID, core.BindCapability))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tok, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: userToken, DeviceID: benchDeviceID})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.HandleBind(protocol.BindRequest{
				DeviceID:  benchDeviceID,
				BindToken: tok.BindToken,
				BindProof: protocol.BindProof(benchSecret, tok.BindToken),
			}); err != nil {
				b.Fatal(err)
			}
			if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: benchDeviceID, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Analysis measures taxonomy derivation and full-design
// prediction — the analyzer path that regenerates Table II.
func BenchmarkTable2Analysis(b *testing.B) {
	b.Run("DeriveTaxonomy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analysis.DeriveTaxonomy(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PredictAll", func(b *testing.B) {
		design := iotbind.WorstCase().Design
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			findings := iotbind.PredictAll(design)
			if len(findings) != 9 {
				b.Fatal("short prediction")
			}
		}
	})
}

// BenchmarkTable3Evaluation runs the complete live attack suite per
// vendor — the experiment that regenerates Table III — and reports how
// many attacks succeed as the "attacks-ok" metric.
func BenchmarkTable3Evaluation(b *testing.B) {
	for _, p := range iotbind.Profiles() {
		p := p
		b.Run(fmt.Sprintf("%02d-%s", p.Number, p.Vendor), func(b *testing.B) {
			var successes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vr, err := testbed.EvaluateVendor(p)
				if err != nil {
					b.Fatal(err)
				}
				successes = 0
				for _, r := range vr.Results {
					if r.Outcome == iotbind.OutcomeSucceeded {
						successes++
					}
				}
				if !iotbind.MatchesPaper(vr.Row, p.Paper) {
					b.Fatalf("row diverged from the paper: %+v", vr.Row)
				}
			}
			b.ReportMetric(float64(successes), "attacks-ok")
		})
	}
}

// BenchmarkDevIDEnumeration measures the attacker's achievable probe rate
// (existence probe + forged bind on hits) per ID scheme — the rate that
// feeds the Section I "within an hour" arithmetic.
func BenchmarkDevIDEnumeration(b *testing.B) {
	schemes := []struct {
		name string
		gen  func() (iotbind.IDGenerator, error)
	}{
		{"MAC", func() (iotbind.IDGenerator, error) { return iotbind.NewMACGenerator([3]byte{1, 2, 3}), nil }},
		{"ShortDigits6", func() (iotbind.IDGenerator, error) { return iotbind.NewShortDigitsGenerator(6) }},
		{"Serial", func() (iotbind.IDGenerator, error) { return iotbind.NewSerialGenerator("SP-", 7, 1_000_000) }},
		{"Random128", func() (iotbind.IDGenerator, error) { return iotbind.NewRandomIDGenerator(7), nil }},
	}
	for _, s := range schemes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			gen, err := s.gen()
			if err != nil {
				b.Fatal(err)
			}
			design := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
			registry := iotbind.NewRegistry()
			// Register one real device somewhere in the range so some
			// probes hit.
			hit, err := gen.Generate(512)
			if err != nil {
				b.Fatal(err)
			}
			if err := registry.Add(iotbind.DeviceRecord{ID: hit, FactorySecret: "s", Model: "plug"}); err != nil {
				b.Fatal(err)
			}
			svc, err := iotbind.NewCloud(design, registry)
			if err != nil {
				b.Fatal(err)
			}
			atk, err := iotbind.NewAttacker("a@example.com", "pw", design, iotbind.StampSource(svc, "198.51.100.66"))
			if err != nil {
				b.Fatal(err)
			}
			if err := atk.Prepare(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := gen.Generate(uint64(i % 1024))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := atk.ProbeDeviceID(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolicyFlags starts from a hardened DevId/ACL design and
// removes one protection at a time, reporting how many attacks each
// missing check admits ("attacks-ok") — the ablation study DESIGN.md
// calls out.
func BenchmarkAblationPolicyFlags(b *testing.B) {
	hardened := func() iotbind.DesignSpec {
		return iotbind.DesignSpec{
			Name:                   "ablation",
			DeviceAuth:             core.AuthDevToken,
			Binding:                iotbind.BindACLApp,
			UnbindForms:            []iotbind.UnbindForm{iotbind.UnbindDevIDUserToken},
			CheckBoundUserOnBind:   true,
			CheckBoundUserOnUnbind: true,
		}
	}
	ablations := []struct {
		name   string
		mutate func(*iotbind.DesignSpec)
	}{
		{"Baseline", func(d *iotbind.DesignSpec) {}},
		{"StaticDeviceID", func(d *iotbind.DesignSpec) { d.DeviceAuth = iotbind.AuthDevID }},
		{"NoUnbindOwnerCheck", func(d *iotbind.DesignSpec) { d.CheckBoundUserOnUnbind = false }},
		{"NoBindOwnerCheck", func(d *iotbind.DesignSpec) {
			d.DeviceAuth = iotbind.AuthDevID
			d.CheckBoundUserOnBind = false
		}},
		{"UnbindByDevIDAlone", func(d *iotbind.DesignSpec) {
			d.DeviceAuth = iotbind.AuthDevID
			d.UnbindForms = append(d.UnbindForms, iotbind.UnbindDevIDAlone)
		}},
		{"SetupWindow", func(d *iotbind.DesignSpec) {
			d.DeviceAuth = iotbind.AuthDevID
			d.OnlineBeforeBind = true
		}},
		{"PostBindingTokenRescue", func(d *iotbind.DesignSpec) {
			d.DeviceAuth = iotbind.AuthDevID
			d.CheckBoundUserOnBind = false
			d.PostBindingToken = true
		}},
	}
	for _, a := range ablations {
		a := a
		b.Run(a.name, func(b *testing.B) {
			design := hardened()
			a.mutate(&design)
			var successes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := iotbind.EvaluateAll(design)
				if err != nil {
					b.Fatal(err)
				}
				successes = 0
				for _, r := range results {
					if r.Outcome == iotbind.OutcomeSucceeded {
						successes++
					}
				}
			}
			b.ReportMetric(float64(successes), "attacks-ok")
		})
	}
}

// BenchmarkSecureVsInsecure contrasts the reference designs end to end
// (Section IV assessments): timing of the full suite plus the success
// metric.
func BenchmarkSecureVsInsecure(b *testing.B) {
	for _, p := range []iotbind.Profile{
		iotbind.SecureReference(),
		iotbind.RecommendedPractice(),
		iotbind.WorstCase(),
	} {
		p := p
		b.Run(p.Design.Name, func(b *testing.B) {
			var successes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := iotbind.EvaluateAll(p.Design)
				if err != nil {
					b.Fatal(err)
				}
				successes = 0
				for _, r := range results {
					if r.Outcome == iotbind.OutcomeSucceeded {
						successes++
					}
				}
			}
			b.ReportMetric(float64(successes), "attacks-ok")
		})
	}
}

// BenchmarkAttackDiscovery measures the automatic attack search (the
// Section VIII future-work direction) at depth 2 against representative
// designs, reporting how many minimal attacks it finds.
func BenchmarkAttackDiscovery(b *testing.B) {
	profiles := []iotbind.Profile{
		mustVendor(b, "TP-LINK"),
		mustVendor(b, "D-LINK"),
		iotbind.SecureReference(),
	}
	for _, p := range profiles {
		p := p
		b.Run(p.Design.Name, func(b *testing.B) {
			var found int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				attacks, err := iotbind.DiscoverAttacks(p.Design, 2)
				if err != nil {
					b.Fatal(err)
				}
				found = len(attacks)
			}
			b.ReportMetric(float64(found), "attacks-found")
		})
	}
}

func mustVendor(b *testing.B, name string) iotbind.Profile {
	b.Helper()
	p, ok := iotbind.ByVendor(name)
	if !ok {
		b.Fatalf("no %s profile", name)
	}
	return p
}

// BenchmarkFormalVerification measures the exhaustive state-space check
// per design, reporting how many properties fail ("violations").
func BenchmarkFormalVerification(b *testing.B) {
	profiles := append(iotbind.Profiles(), iotbind.SecureReference(), iotbind.WorstCase())
	for _, p := range profiles {
		p := p
		b.Run(p.Design.Name, func(b *testing.B) {
			var violations int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := iotbind.VerifyDesign(p.Design)
				if err != nil {
					b.Fatal(err)
				}
				violations = 0
				for _, r := range results {
					if !r.Holds {
						violations++
					}
				}
			}
			b.ReportMetric(float64(violations), "violations")
		})
	}
}

// BenchmarkCampaignExposure measures one fleet-exposure campaign (the
// §V-C scalable DoS at fleet scale), reporting the final occupied
// fraction.
func BenchmarkCampaignExposure(b *testing.B) {
	gen, err := iotbind.NewShortDigitsGenerator(4)
	if err != nil {
		b.Fatal(err)
	}
	p := mustVendor(b, "D-LINK")
	cfg := iotbind.CampaignConfig{
		Design: p.Design, Fleet: gen, Candidates: gen,
		FleetSize: 50, RatePerSecond: 1000,
		Observations: []time.Duration{time.Second, 5 * time.Second, 10 * time.Second},
	}
	var fraction float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := iotbind.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fraction = points[len(points)-1].Fraction
	}
	b.ReportMetric(fraction*100, "fleet-pct")
}

// BenchmarkHardening measures the repair-plan search per vendor,
// reporting the plan size ("steps").
func BenchmarkHardening(b *testing.B) {
	for _, p := range iotbind.Profiles() {
		p := p
		b.Run(p.Design.Name, func(b *testing.B) {
			var steps int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, err := iotbind.RecommendHardening(p.Design)
				if err != nil {
					b.Fatal(err)
				}
				steps = len(plan.Steps)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkHubFanout measures one four-party bridge cycle (collect from N
// sub-devices, heartbeat, route N commands) as the PAN grows.
func BenchmarkHubFanout(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		n := n
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) {
			design := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
			svc, userToken := benchCloud(b, design)
			h, err := iotbind.NewHub(iotbind.DeviceConfig{
				ID: benchDeviceID, FactorySecret: benchSecret, LocalName: "hub", Model: "hub",
			}, design, iotbind.StampSource(svc, "203.0.113.7"))
			if err != nil {
				b.Fatal(err)
			}
			h.PermitJoin(true)
			subs := make([]*iotbind.SubDevice, n)
			for i := range subs {
				subs[i] = iotbind.NewSubDevice(fmt.Sprintf("node-%d", i), "sensor")
				if err := h.Pair(subs[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := h.Device().Provision(provisioning()); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: benchDeviceID, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, s := range subs {
					s.Report("v", float64(j))
					if _, err := svc.HandleControl(protocol.ControlRequest{
						DeviceID:  benchDeviceID,
						UserToken: userToken,
						Command: iotbind.Command{
							ID:   fmt.Sprintf("c-%d-%d", i, j),
							Name: "poke",
							Args: map[string]string{iotbind.HubTargetArg: s.Name()},
						},
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := h.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func provisioning() (p localnet.Provisioning) {
	p.WiFiSSID = "home"
	p.WiFiPassword = "pw"
	return p
}

// benchFleetCloud builds a cloud with n registered devices and one
// logged-in user, for the fleet-concurrency benchmarks.
func benchFleetCloud(b *testing.B, design iotbind.DesignSpec, n int) (*iotbind.Cloud, []string, string) {
	b.Helper()
	registry := iotbind.NewRegistry()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", (i>>16)&0xFF, (i>>8)&0xFF, i&0xFF)
		if err := registry.Add(iotbind.DeviceRecord{ID: ids[i], FactorySecret: benchSecret, Model: "plug"}); err != nil {
			b.Fatal(err)
		}
	}
	svc, err := iotbind.NewCloud(design, registry)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.RegisterUser(iotbind.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		b.Fatal(err)
	}
	login, err := svc.Login(iotbind.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		b.Fatal(err)
	}
	return svc, ids, login.UserToken
}

// BenchmarkParallelStatusStorm hammers the cloud with concurrent
// heartbeats across a fleet of devices — the hot path the sharded shadow
// store parallelizes. Each goroutine heartbeats its own device, so under
// per-device locking the handlers never contend.
func BenchmarkParallelStatusStorm(b *testing.B) {
	const devices = 64
	svc, ids, _ := benchFleetCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp), devices)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids[int(next.Add(1))%devices]
		req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id}
		for pb.Next() {
			if _, err := svc.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelBindChurn cycles bind/unbind on per-goroutine devices
// concurrently — the mixed mutation storm of a fleet-scale occupation
// campaign hitting one cloud.
func BenchmarkParallelBindChurn(b *testing.B) {
	const devices = 64
	svc, ids, userToken := benchFleetCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp), devices)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids[int(next.Add(1))%devices]
		for pb.Next() {
			if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
			if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: userToken}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelMixedFleet interleaves heartbeats, binds, controls and
// stats snapshots across a fleet — the closest benchmark to production
// traffic shape.
func BenchmarkParallelMixedFleet(b *testing.B) {
	const devices = 64
	svc, ids, userToken := benchFleetCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp), devices)
	for _, id := range ids {
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: userToken}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids[int(next.Add(1))%devices]
		var i int
		for pb.Next() {
			switch i % 4 {
			case 0, 1:
				if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id}); err != nil {
					b.Fatal(err)
				}
			case 2:
				if _, err := svc.HandleControl(protocol.ControlRequest{
					DeviceID: id, UserToken: userToken,
					Command: iotbind.Command{ID: "c", Name: "poke"},
				}); err != nil {
					b.Fatal(err)
				}
			case 3:
				_ = svc.Stats()
			}
			i++
		}
	})
}

// BenchmarkCampaignSweepWorkers measures the fleet-exposure campaign at
// increasing worker-pool sizes — the parallel sweep mode that lets the
// attack emulation saturate the sharded cloud.
func BenchmarkCampaignSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			gen, err := iotbind.NewShortDigitsGenerator(4)
			if err != nil {
				b.Fatal(err)
			}
			p := mustVendor(b, "D-LINK")
			cfg := iotbind.CampaignConfig{
				Design: p.Design, Fleet: gen, Candidates: gen,
				FleetSize: 50, RatePerSecond: 1000, Workers: workers,
				Observations: []time.Duration{time.Second, 5 * time.Second, 10 * time.Second},
			}
			var fraction float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := iotbind.RunCampaign(cfg)
				if err != nil {
					b.Fatal(err)
				}
				fraction = points[len(points)-1].Fraction
			}
			b.ReportMetric(fraction*100, "fleet-pct")
		})
	}
}

// BenchmarkHTTPStatusRoundTrip measures a device heartbeat through the
// HTTP front end — the per-message cost of running the cloud as a real
// networked service.
func BenchmarkHTTPStatusRoundTrip(b *testing.B) {
	svc, _ := benchCloud(b, benchDesign(iotbind.AuthDevID, iotbind.BindACLApp))
	server := httptest.NewServer(iotbind.NewHTTPServer(svc))
	defer server.Close()
	client := iotbind.NewHTTPClient(server.URL)
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: benchDeviceID}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.HandleStatus(req); err != nil {
			b.Fatal(err)
		}
	}
}
