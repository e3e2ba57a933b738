package httpapi_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/httpapi"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

const (
	devID     = "AA:BB:CC:00:00:77"
	devSecret = "factory-secret-http"
)

func laxDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                 "http-lax",
		DeviceAuth:           core.AuthDevID,
		Binding:              core.BindACLApp,
		UnbindForms:          []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind: true,
		// CheckBoundUserOnUnbind intentionally false: the A3-2 flaw,
		// exercised over the wire below.
	}
}

func newHTTPCloud(t *testing.T, design core.DesignSpec) (*httptest.Server, *httpapi.Client) {
	t.Helper()
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: devID, FactorySecret: devSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(design, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(svc))
	t.Cleanup(srv.Close)
	return srv, httpapi.NewClient(srv.URL)
}

// TestFullLifecycleOverHTTP runs login, binding, heartbeat, control and
// readings through the HTTP boundary.
func TestFullLifecycleOverHTTP(t *testing.T) {
	_, client := newHTTPCloud(t, laxDesign())

	if err := client.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := client.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}

	// A real device agent over the HTTP transport.
	home := localnet.NewNetwork("home", "203.0.113.7")
	dev, err := device.New(device.Config{
		ID: devID, FactorySecret: devSecret, LocalName: "plug", Model: "plug",
	}, laxDesign(), client)
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Join(dev); err != nil {
		t.Fatal(err)
	}
	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}

	if _, err := client.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: login.UserToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleControl(protocol.ControlRequest{
		DeviceID: devID, UserToken: login.UserToken,
		Command: protocol.Command{ID: "c1", Name: "turn_on"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Executed(); len(got) != 1 || got[0].Name != "turn_on" {
		t.Errorf("executed = %+v", got)
	}

	dev.QueueReading("power_w", 11)
	if err := dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	readings, err := client.Readings(protocol.ReadingsRequest{DeviceID: devID, UserToken: login.UserToken})
	if err != nil {
		t.Fatal(err)
	}
	if len(readings.Readings) != 1 || readings.Readings[0].Value != 11 {
		t.Errorf("readings = %+v", readings.Readings)
	}

	st, err := client.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl {
		t.Errorf("shadow = %v, want control", st.State)
	}
}

// TestAttackOverHTTP launches the A3-2 unbinding attack through the wire:
// the attacker toolkit runs against the HTTP client transport.
func TestAttackOverHTTP(t *testing.T) {
	_, client := newHTTPCloud(t, laxDesign())

	// Victim binds.
	if err := client.RegisterUser(protocol.RegisterUserRequest{UserID: "victim", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := client.Login(protocol.LoginRequest{UserID: "victim", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: devID}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: login.UserToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	atk, err := attacker.New("attacker", "pw", laxDesign(), client)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := atk.ForgeUnbind(devID, core.UnbindDevIDUserToken); err != nil {
		t.Fatalf("A3-2 over HTTP: %v", err)
	}
	st, err := client.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "" {
		t.Errorf("binding survived: %+v", st)
	}
}

// TestErrorMappingAcrossWire checks that protocol sentinel errors survive
// the HTTP round trip for errors.Is.
func TestErrorMappingAcrossWire(t *testing.T) {
	_, client := newHTTPCloud(t, laxDesign())

	if _, err := client.Login(protocol.LoginRequest{UserID: "ghost", Password: "x"}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("login error = %v, want ErrAuthFailed", err)
	}
	if _, err := client.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: "nope"}); !errors.Is(err, protocol.ErrUnknownDevice) {
		t.Errorf("status error = %v, want ErrUnknownDevice", err)
	}
	if err := client.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); !errors.Is(err, protocol.ErrUserExists) {
		t.Errorf("register error = %v, want ErrUserExists", err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, _ := newHTTPCloud(t, laxDesign())

	// GET is rejected.
	resp, err := http.Get(srv.URL + httpapi.Route(transport.OpLogin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	// Malformed JSON is rejected.
	resp, err = http.Post(srv.URL+httpapi.Route(transport.OpLogin), "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", resp.StatusCode)
	}
}

// TestClientImplementsTransport pins the interface contract.
func TestClientImplementsTransport(t *testing.T) {
	var _ transport.Cloud = (*httpapi.Client)(nil)
}
