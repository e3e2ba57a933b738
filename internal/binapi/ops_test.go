package binapi

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// TestKindsComplete holds the frame-kind table to the operation table:
// every transport.Op is served under exactly one kind, a logged
// operation's kind is its WAL record tag (the frame is the record's
// body), and no kind collides with the liveness tag, which is WAL-only,
// with the retired status-batch tag 0x02, or with the two kinds that are
// not operations. An operation added to
// transport.Ops without a row in ops.go fails here by name.
func TestKindsComplete(t *testing.T) {
	recordTag := map[transport.Op]uint8{
		transport.OpStatus:           wirecodec.TagStatus,
		transport.OpDelegate:         wirecodec.TagDelegate,
		transport.OpRevokeDelegation: wirecodec.TagRevokeDelegation,
		transport.OpShare:            wirecodec.TagShare,
		transport.OpRegisterUser:     wirecodec.TagRegisterUser,
		transport.OpLogin:            wirecodec.TagLogin,
		transport.OpDeviceToken:      wirecodec.TagDeviceToken,
		transport.OpBindToken:        wirecodec.TagBindToken,
		transport.OpBind:             wirecodec.TagBind,
		transport.OpUnbind:           wirecodec.TagUnbind,
		transport.OpControl:          wirecodec.TagControl,
		transport.OpUserData:         wirecodec.TagUserData,
	}
	kindOf := map[transport.Op][]uint8{}
	for kind, h := range kinds {
		if h.serve == nil {
			continue
		}
		if int(h.op) >= len(transport.Ops) {
			t.Errorf("kind 0x%02x serves Op(%d), which transport.Ops does not have", kind, h.op)
			continue
		}
		kindOf[h.op] = append(kindOf[h.op], uint8(kind))
		switch kind {
		case wirecodec.TagLiveness, 0x02, kindError, kindHello:
			t.Errorf("%s is served under kind 0x%02x, which is reserved", h.op, kind)
		}
	}
	for i := range transport.Ops {
		op := transport.Op(i)
		got := kindOf[op]
		if len(got) != 1 {
			t.Errorf("%s has %d frame kinds %v, want exactly one (a row in ops.go)", op, len(got), got)
			continue
		}
		if tag, logged := recordTag[op]; logged && got[0] != tag {
			t.Errorf("%s travels as kind 0x%02x but is logged under tag 0x%02x", op, got[0], tag)
		}
	}

	// The wire fuzzer's corpus has a frame of every kind a row serves.
	seeded := map[uint8]bool{}
	for _, frame := range fuzzColdFrames() {
		hdr, _, _, err := wal.ParseFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, kind, _ := unpackHeader(hdr)
		seeded[kind] = true
	}
	for kind, h := range kinds {
		if h.serve != nil && kind != kindStatus && !seeded[uint8(kind)] {
			t.Errorf("%s (kind 0x%02x) has no seed frame in fuzzColdFrames", h.op, kind)
		}
	}
}

// TestLoggedKindDecodesAsRecordBody: what "kind = tag" buys. A request
// frame's payload behind the tag and a time is a WAL record DecodeRecord
// accepts, for every logged cold operation.
func TestLoggedKindDecodesAsRecordBody(t *testing.T) {
	for _, frame := range fuzzColdFrames() {
		hdr, payload, _, err := wal.ParseFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, kind, _ := unpackHeader(hdr)
		if kind >= kindReadings {
			continue // the four reads are never logged
		}
		record := append([]byte{kind, 0, 0, 0, 0, 0, 0, 0, 0}, payload...)
		if _, err := wirecodec.DecodeRecord(record); err != nil {
			t.Errorf("%s frame body is not its record's body: %v", kinds[kind].op, err)
		}
	}
}

// TestNoJSONInPackage: JSON left the serving path. No non-test file of
// this package may import encoding/json or the pooled JSON buffers, or
// name the JSON client lane, which is httpapi's alone.
func TestNoJSONInPackage(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "encoding/json" || strings.HasSuffix(path, "/internal/jsonpool") {
				t.Errorf("%s imports %s", name, path)
			}
		}
		if bytes.Contains(src, []byte("JSONLane")) {
			t.Errorf("%s names transport.JSONLane", name)
		}
	}
	if checked == 0 {
		t.Fatal("found no source files to check")
	}
}
