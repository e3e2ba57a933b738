package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// durableDir builds a real cloud.Durable directory with a few logged
// operations, the corpus dump and verify run against.
func durableDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	design := core.DesignSpec{
		Name:                 "walinspect-test",
		DeviceAuth:           core.AuthDevID,
		Binding:              core.BindACLApp,
		CheckBoundUserOnBind: true,
	}
	registry := cloud.NewRegistry()
	const deviceID = "AA:BB:CC:00:0E:01"
	if err := registry.Add(cloud.DeviceRecord{ID: deviceID, FactorySecret: "fs"}); err != nil {
		t.Fatal(err)
	}
	d, err := cloud.OpenDurable(dir, design, registry, cloud.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.RegisterUser(protocol.RegisterUserRequest{UserID: "u@x", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := d.Login(protocol.LoginRequest{UserID: "u@x", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: deviceID}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleBind(protocol.BindRequest{DeviceID: deviceID, UserToken: login.UserToken}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterUser(protocol.RegisterUserRequest{UserID: "g@x", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleDelegate(protocol.DelegateRequest{
		DeviceID: deviceID, UserToken: login.UserToken, Grantee: "g@x",
		Scopes: []string{"control", "read"}, TTLSeconds: 3600, IdempotencyKey: "k1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
		DeviceID: deviceID, UserToken: login.UserToken, Grantee: "g@x",
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDumpAndVerifyDurableDir(t *testing.T) {
	dir := durableDir(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"dump", dir}, &out, &errOut); code != 0 {
		t.Fatalf("dump exited %d: %s", code, errOut.Bytes())
	}
	text := out.String()
	for _, want := range []string{
		"register_user user=u@x", "register_user user=g@x", "login user=u@x", "status register",
		"bind device=AA:BB:CC:00:0E:01 sender=0 keyed=false",
		"delegate device=AA:BB:CC:00:0E:01 grantee=g@x", "keyed=true",
		"revoke_delegation device=AA:BB:CC:00:0E:01 grantee=g@x",
		"7 record(s)", "shard(s)", "watermark",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "undecodable") {
		t.Errorf("dump could not decode a record the cloud wrote:\n%s", text)
	}

	out.Reset()
	if code := run([]string{"verify", dir}, &out, &errOut); code != 0 {
		t.Fatalf("verify exited %d: %s", code, errOut.Bytes())
	}
	if !strings.Contains(out.String(), "7 record(s)") {
		t.Errorf("verify output missing record count:\n%s", out.String())
	}
	// verify must not have decoded records into stdout.
	if strings.Contains(out.String(), "register_user") {
		t.Errorf("verify dumped records:\n%s", out.String())
	}
}

func TestVerifyMissingDirFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"verify", filepath.Join(t.TempDir(), "nope")}, &out, &errOut); code != 1 {
		t.Fatalf("verify of missing dir exited %d, want 1", code)
	}
}

func TestSelfcheck(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"selfcheck"}, &out, &errOut); code != 0 {
		t.Fatalf("selfcheck exited %d: %s", code, errOut.Bytes())
	}
	if !strings.Contains(out.String(), "selfcheck ok") {
		t.Errorf("selfcheck output: %s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
	if code := run([]string{"dump"}, &out, &errOut); code != 2 {
		t.Errorf("dump without dir exited %d, want 2", code)
	}
}
