package iotbind_test

// Delegation benchmarks (EXPERIMENTS.md §BENCH_10):
//
//	BenchmarkDelegatedStatus — the keyed status read path per credential:
//	                           owner token vs delegation token vs grantee
//	                           user token (full lattice walk)
//	BenchmarkShareStorm      — a full share/revoke storm with seeded
//	                           crashes and the byte-identical recovery proof
//
// The headline number is DelegatedStatus: under the strict posture
// (attenuation + cascade + use-time checking) the delegated read must
// stay within 15% of the owner read — the lattice check must not poison
// the hot path.

import (
	"testing"
	"time"

	iotbind "github.com/iotbind/iotbind"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/wal"
)

// benchDelegationDesign is the strict delegation posture on top of the
// standard bench design.
func benchDelegationDesign() iotbind.DesignSpec {
	d := benchDesign(iotbind.AuthDevID, iotbind.BindACLApp)
	d.Name = "bench-deleg"
	d.DelegationScopeAttenuation = true
	d.DelegationCascadeRevoke = true
	d.DelegationCheckAtUse = true
	return d
}

// BenchmarkDelegatedStatus measures the device status read (Readings)
// under each credential form. "owner" short-circuits on the bound user;
// "delegated-token" resolves a minted delegation token and re-walks its
// chain (DelegationCheckAtUse); "delegated-user" authorizes a grantee's
// ordinary login token through the full lattice walk.
func BenchmarkDelegatedStatus(b *testing.B) {
	setup := func(b *testing.B) (*iotbind.Cloud, string, string, string) {
		b.Helper()
		svc, owner := benchCloud(b, benchDelegationDesign())
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: benchDeviceID}); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: benchDeviceID, UserToken: owner}); err != nil {
			b.Fatal(err)
		}
		// A handful of reported readings so the read copies real data.
		hb := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: benchDeviceID}
		for i := 0; i < 8; i++ {
			hb.Readings = []protocol.Reading{{Name: "temp", Value: float64(i), At: time.Unix(int64(i), 0)}}
			if _, err := svc.HandleStatus(hb); err != nil {
				b.Fatal(err)
			}
		}
		if err := svc.RegisterUser(iotbind.RegisterUserRequest{UserID: "guest@example.com", Password: "pw"}); err != nil {
			b.Fatal(err)
		}
		login, err := svc.Login(iotbind.LoginRequest{UserID: "guest@example.com", Password: "pw"})
		if err != nil {
			b.Fatal(err)
		}
		grant, err := svc.HandleDelegate(protocol.DelegateRequest{
			DeviceID: benchDeviceID, UserToken: owner, Grantee: "guest@example.com",
			Scopes: []string{"control", "read"}, TTLSeconds: 24 * 3600, Depth: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return svc, owner, grant.DelegationToken, login.UserToken
	}

	read := func(b *testing.B, svc *iotbind.Cloud, cred string) {
		b.Helper()
		req := protocol.ReadingsRequest{DeviceID: benchDeviceID, UserToken: cred}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Readings(req); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("owner", func(b *testing.B) {
		svc, owner, _, _ := setup(b)
		read(b, svc, owner)
	})
	b.Run("delegated-token", func(b *testing.B) {
		svc, _, delegTok, _ := setup(b)
		read(b, svc, delegTok)
	})
	b.Run("delegated-user", func(b *testing.B) {
		svc, _, _, guest := setup(b)
		read(b, svc, guest)
	})
}

// BenchmarkShareStorm runs the seeded share/revoke storm end to end —
// grants, chained re-delegations, cascade revocations and delegated
// control under mid-run kills — including the byte-identical recovery
// proof against a never-crashed reference. One iteration is one full
// storm; custom metrics surface the churn.
func BenchmarkShareStorm(b *testing.B) {
	b.ReportAllocs()
	var crashes, replayed, granted, revoked int
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunShareStorm(testbed.ShareStormConfig{
			Design:     benchDelegationDesign(),
			Ops:        96,
			Guests:     3,
			KillPoints: 8,
			Seed:       int64(1000 + i),
			Policy:     wal.SyncEveryRecord,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxLostAcked != 0 {
			b.Fatalf("storm lost %d acknowledged ops", res.MaxLostAcked)
		}
		crashes += res.Crashes
		replayed += res.Replayed
		granted += int(res.Granted)
		revoked += int(res.Revoked)
	}
	b.ReportMetric(float64(crashes)/float64(b.N), "crashes/op")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
	b.ReportMetric(float64(granted)/float64(b.N), "grants/op")
	b.ReportMetric(float64(revoked)/float64(b.N), "revokes/op")
}
