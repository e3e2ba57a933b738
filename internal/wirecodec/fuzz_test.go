package wirecodec

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
)

// FuzzDelegationRecordDecode throws arbitrary bytes at every delegation
// decoder: the WAL record forms (tagged grant/revoke records through
// DecodeRecord and DescribeRecord) and the binapi wire bodies
// (share/delegate/revoke request forms and the delegate response). The
// contract: no input panics, truncations and huge scope counts are
// rejected without overallocation, and anything that decodes cleanly
// re-encodes byte-identically.
func FuzzDelegationRecordDecode(f *testing.F) {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	delegate := protocol.DelegateRequest{
		DeviceID: "AA:BB:CC:00:00:01", UserToken: "tok", Grantee: "guest@x",
		Scopes: []string{"control", "read", "share"}, TTLSeconds: 3600, Depth: 2,
		IdempotencyKey: "k1",
	}
	revoke := protocol.RevokeDelegationRequest{
		DeviceID: "AA:BB:CC:00:00:01", UserToken: "tok", Grantee: "guest@x",
		IdempotencyKey: "k2",
	}
	share := protocol.ShareRequest{
		DeviceID: "AA:BB:CC:00:00:01", UserToken: "tok", Guest: "guest@x", Revoke: true,
	}

	var rec bytes.Buffer
	EncodeRecord(&rec, TagDelegate, at, PutDelegateBody, delegate)
	f.Add(append([]byte(nil), rec.Bytes()...))
	f.Add(append([]byte(nil), rec.Bytes()[:rec.Len()/2]...)) // truncated mid-record
	huge := append([]byte(nil), rec.Bytes()...)
	// Blow up the scope count varint region: decoders must refuse to
	// allocate for counts the payload cannot possibly hold.
	for i := range huge {
		if i > 0 {
			huge[i] = 0xFF
		}
	}
	f.Add(huge)
	rec.Reset()
	EncodeRecord(&rec, TagRevokeDelegation, at, PutRevokeDelegationBody, revoke)
	f.Add(append([]byte(nil), rec.Bytes()...))
	rec.Reset()
	PutDelegateBody(&rec, delegate)
	f.Add(append([]byte(nil), rec.Bytes()...))
	rec.Reset()
	PutShareBody(&rec, share)
	f.Add(append([]byte(nil), rec.Bytes()...))
	rec.Reset()
	PutDelegateResponse(&rec, protocol.DelegateResponse{DelegationToken: "d", ExpiresAt: at})
	f.Add(append([]byte(nil), rec.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{TagDelegate})
	f.Add([]byte{TagRevokeDelegation, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// WAL record forms: decode and describe must agree on validity,
		// and a decoded grant/revoke must round-trip byte-identically.
		record, err := DecodeRecord(data)
		if _, derr := DescribeRecord(data); (err == nil) != (derr == nil) {
			t.Fatalf("DecodeRecord err=%v but DescribeRecord err=%v", err, derr)
		}
		if err == nil {
			// Semantic round trip (varint lengths admit non-minimal
			// encodings, so byte-exactness is not the invariant): an
			// accepted record re-encodes to something that decodes back
			// to the same record.
			var out bytes.Buffer
			switch req := record.Req.(type) {
			case protocol.DelegateRequest:
				EncodeRecord(&out, TagDelegate, record.At, PutDelegateBody, req)
			case protocol.RevokeDelegationRequest:
				EncodeRecord(&out, TagRevokeDelegation, record.At, PutRevokeDelegationBody, req)
			}
			if out.Len() > 0 {
				back, backErr := DecodeRecord(out.Bytes())
				if backErr != nil {
					t.Fatalf("re-encoded record does not decode: %v", backErr)
				}
				if !reflect.DeepEqual(record, back) {
					t.Fatalf("record round trip:\n got %+v\nwant %+v", back, record)
				}
			}
		}

		// Wire bodies: each reader either consumes the input cleanly or
		// flags the cursor; a clean read must round-trip.
		{
			c := NewCursor(data, 0)
			req := ReadDelegateBody(c)
			if c.Err() == nil && c.Done() {
				var out bytes.Buffer
				PutDelegateBody(&out, req)
				back := ReadDelegateBody(NewCursor(out.Bytes(), 0))
				if !reflect.DeepEqual(req, back) {
					t.Fatalf("delegate body round trip:\n got %+v\nwant %+v", back, req)
				}
			}
		}
		{
			c := NewCursor(data, 0)
			req := ReadShareBody(c)
			if c.Err() == nil && c.Done() {
				// The revoke flag is a bool: any nonzero byte decodes to
				// true, so the round trip is semantic, not byte-exact.
				var out bytes.Buffer
				PutShareBody(&out, req)
				back := ReadShareBody(NewCursor(out.Bytes(), 0))
				if !reflect.DeepEqual(req, back) {
					t.Fatalf("share body round trip:\n got %+v\nwant %+v", back, req)
				}
			}
		}
		{
			c := NewCursor(data, 0)
			_ = ReadRevokeDelegationBody(c)
		}
		{
			c := NewCursor(data, 0)
			_ = ReadDelegateResponse(c)
		}
	})
}

// retiredBatchBodies are the hex encodings of the status-batch request
// and response bodies the wire carried before the batch lane was
// removed.
var retiredBatchBodies = []string{
	"0831302e302e302e3902011141413a42423a43433a30303a30303a303106646576746f6b0373696704736573730570726f6f66026b3103312e3204706c75670831302e302e302e37010207706f7765725f770000000000000a40fa8007ca8db1bf180674656d705f63000000000000f8bf0000000000000080021141413a42423a43433a30303a30303a303100000000000000000000",
	"02000001076e6f6e63652d3102026330077475726e5f6f6e000263310373657402056c6576656c0137046d6f64650365636f01087363686564756c650830393a3030206f6e0e756e6b6e6f776e5f6465766963650e6e6f20737563682064657669636500000000",
}

// FuzzBodyDecode throws arbitrary bytes at every request- and
// response-body decoder (bodyPairs): no input panics, no decoder sizes a
// list beyond what Cursor.Count admits for the bytes it was given, a
// cursor reading through a canonicaliser (heldHook) decodes the same
// value with the same Err and Done as one that copies, and anything a
// decoder accepts re-encodes to bytes that decode and re-encode to
// themselves. Two delegate bodies decoded through one reused cursor,
// without a Reset between, get scope slices of their own: each capped,
// so an append cannot reach the next one's, and apart.
func FuzzBodyDecode(f *testing.F) {
	pairs := bodyPairs()
	for _, p := range pairs {
		f.Add(p.seed)
		f.Add(p.seed[:len(p.seed)/2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 24)) // every count and length huge
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	// The retired status-batch request and response bodies, whole and
	// cut in half: bytes a peer of the old wire may still send, which
	// every decoder must meet without panic.
	for _, retired := range retiredBatchBodies {
		seed, err := hex.DecodeString(retired)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	// A body of many scopes leaves a cursor's arena with room to spare
	// after Reset, where an uncapped cut would show.
	var warm bytes.Buffer
	PutDelegateBody(&warm, protocol.DelegateRequest{Scopes: make([]string, 16)})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range pairs {
			p.decode(t, data)
		}
		var c Cursor
		c.Reset(warm.Bytes())
		ReadDelegateBody(&c)
		c.Reset(append(append([]byte(nil), data...), data...))
		first, second := ReadDelegateBody(&c), ReadDelegateBody(&c)
		if c.Err() != nil {
			return
		}
		if cap(first.Scopes) != len(first.Scopes) || cap(second.Scopes) != len(second.Scopes) {
			t.Fatalf("scope slices not capped: len %d cap %d, len %d cap %d",
				len(first.Scopes), cap(first.Scopes), len(second.Scopes), cap(second.Scopes))
		}
		want := slices.Clone(second.Scopes)
		for i := range first.Scopes {
			first.Scopes[i] = "overwritten"
		}
		if !slices.Equal(second.Scopes, want) {
			t.Fatalf("the first body's scope slice overlaps the second's: %q, want %q", second.Scopes, want)
		}
	})
}
