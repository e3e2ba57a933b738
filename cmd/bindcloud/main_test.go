package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	iotbind "github.com/iotbind/iotbind"
)

func TestRunRejectsUnknownVendorAndProto(t *testing.T) {
	if err := run("NO-SUCH-VENDOR", "127.0.0.1:0", 1, "http"); err == nil || !strings.Contains(err.Error(), "unknown vendor") {
		t.Errorf("unknown vendor = %v, want an error naming it", err)
	}
	// The retired line protocol is refused by name, before anything listens.
	if err := run("D-LINK", "127.0.0.1:0", 1, "tcp"); err == nil || !strings.Contains(err.Error(), `unknown proto "tcp"`) {
		t.Errorf("unknown proto = %v, want an error naming it", err)
	}
}

// TestHTTPRoundTrip drives the cloud the command builds through the
// handler it serves: create an account, log in, and inspect the shadow of
// one of the pre-registered devices.
func TestHTTPRoundTrip(t *testing.T) {
	_, cloud, devices, err := newCloud("D-LINK", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 {
		t.Fatalf("fleet = %d devices, want 2", len(devices))
	}
	srv := httptest.NewServer(iotbind.NewHTTPServer(cloud))
	defer srv.Close()
	client := iotbind.NewHTTPClient(srv.URL)

	if err := client.RegisterUser(iotbind.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatalf("register-user: %v", err)
	}
	login, err := client.Login(iotbind.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil || login.UserToken == "" {
		t.Fatalf("login = %+v, %v, want a user token", login, err)
	}
	shadow, err := client.ShadowState(iotbind.ShadowStateRequest{DeviceID: devices[0].ID})
	if err != nil {
		t.Fatalf("shadow of pre-registered device %s: %v", devices[0].ID, err)
	}
	if shadow.BoundUser != "" {
		t.Errorf("fresh device already bound to %q", shadow.BoundUser)
	}
}
