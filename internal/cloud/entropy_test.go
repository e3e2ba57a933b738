package cloud

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
)

// streamBlock computes block n of the entropy stream of the record at
// lsn from its definition, SHA-256(master || LSN || n), independently of
// the generator under test.
func streamBlock(master [32]byte, lsn, n uint64) [32]byte {
	in := append([]byte(nil), master[:]...)
	in = binary.LittleEndian.AppendUint64(in, lsn)
	in = binary.LittleEndian.AppendUint64(in, n)
	return sha256.Sum256(in)
}

// TestOpEnvNonceStreamContinues: an operation environment holds its
// record's stream by value, built from (master seed, LSN) with nothing
// hashed until the first draw, and every draw must advance that one
// value. An environment that made itself a generator per draw would hand
// the stream's first sixteen bytes out again and again — two registers of
// one operation would share a session nonce.
func TestOpEnvNonceStreamContinues(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	master := [32]byte{1, 2, 3}
	const lsn = 41
	env := opEnv{g: drbg{master: &master, lsn: lsn}}
	var got []byte
	for i := 0; i < 5; i++ { // 80 bytes: into the third block
		nonce, err := svc.envNonce(&env)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := hex.DecodeString(nonce)
		if err != nil || len(raw) != 16 {
			t.Fatalf("draw %d = %q, want 16 hex-encoded bytes", i, nonce)
		}
		got = append(got, raw...)
	}
	var want []byte
	for n := uint64(0); n < 3; n++ {
		blk := streamBlock(master, lsn, n)
		want = append(want, blk[:]...)
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Errorf("five draws from one environment:\n got  %x\n want %x (the stream's first 80 bytes)", got, want[:len(got)])
	}

	// An environment without a stream falls back to the service's source.
	if nonce, err := svc.envNonce(&opEnv{}); err != nil || len(nonce) != 32 {
		t.Errorf("unseeded environment drew %q, %v", nonce, err)
	}
}

// TestSessionNonceSameOnPrimaryReplicaAndRecovery: under a
// DataRequiresSession design a register mints a session nonce from its
// record's stream. The three executions of that record — live on the
// primary (hot lane: the stream travels in the opEnv; batch: in
// Durable.opG behind randomHex), shipped to the replica, and replayed by
// recovery — must mint the same nonce, which is the head of the stream
// as defined, and two registers in one batch record must continue one
// stream rather than restart it.
func TestSessionNonceSameOnPrimaryReplicaAndRecovery(t *testing.T) {
	design := devIDDesign()
	design.Name = "data-session"
	design.DataRequiresSession = true
	const second, third = "AA:BB:CC:00:00:02", "AA:BB:CC:00:00:03"
	clock := newTestClock()
	reg := NewRegistry()
	for _, id := range []string{testDevice, second, third} {
		if err := reg.Add(DeviceRecord{ID: id, FactorySecret: testSecret, Model: "plug"}); err != nil {
			t.Fatal(err)
		}
	}
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	opts := DurableOptions{Clock: clock.Now, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff}}
	primary, err := OpenDurable(primaryDir, design, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica := openReplicaDesign(t, primaryDir, replicaDir, design, reg, clock)

	head := func(lsn uint64, draw int) string {
		blk := streamBlock(primary.master, lsn, 0)
		return hex.EncodeToString(blk[16*draw : 16*draw+16])
	}
	register := func(id string) string {
		t.Helper()
		resp, err := primary.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id, SourceIP: "203.0.113.7"})
		if err != nil {
			t.Fatal(err)
		}
		if want := head(primary.AppliedOps(), 0); resp.SessionNonce != want {
			t.Fatalf("register of %s at LSN %d minted nonce %q, want the head of its stream %q", id, primary.AppliedOps(), resp.SessionNonce, want)
		}
		return resp.SessionNonce
	}
	first := register(testDevice)
	batch, err := primary.HandleStatusBatch(protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: second},
		{Kind: protocol.StatusRegister, DeviceID: third},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if want := head(primary.AppliedOps(), i); r.Code != "" || r.Response.SessionNonce != want {
			t.Fatalf("batch item %d: code %q, nonce %q, want draw %d of the batch record's stream %q", i, r.Code, r.Response.SessionNonce, i, want)
		}
	}
	if again := register(testDevice); again == first {
		t.Fatalf("two registers at different LSNs minted the same nonce %q", first)
	} else if _, err := primary.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		DataProof: protocol.DataProof(testSecret, again),
		Readings:  []protocol.Reading{{Name: "power_w", Value: 7, At: clock.Now()}},
	}); err != nil {
		t.Fatalf("heartbeat proving the second nonce: %v", err)
	}

	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	tailers := make([]*wal.Tailer, primary.WALShards())
	for i := range tailers {
		tailers[i] = wal.NewTailer(filepath.Join(primaryDir, "wal", wal.ShardDirName(i)), 0, 0)
	}
	for _, rec := range tailPrimary(t, tailers) {
		if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
			t.Fatalf("ship %d: %v", rec.lsn, err)
		}
	}
	want := encodeState(t, primary)
	if got := encodeState(t, replica); !bytes.Equal(want, got) {
		t.Errorf("replica state differs from primary:\nprimary:\n%s\nreplica:\n%s", want, got)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenDurable(primaryDir, design, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := encodeState(t, recovered); !bytes.Equal(want, got) {
		t.Errorf("recovered state differs from the live primary's:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}
