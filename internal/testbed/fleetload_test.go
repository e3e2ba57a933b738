package testbed

import (
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
)

func fleetDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                   "fleet-load",
		DeviceAuth:             core.AuthDevID,
		Binding:                core.BindACLApp,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

// TestRunFleetLoadPerMessage smoke-runs the HTTP front end per-message:
// every heartbeat is its own wire call.
func TestRunFleetLoadPerMessage(t *testing.T) {
	res, err := RunFleetLoad(FleetLoadConfig{
		Design:     fleetDesign(),
		Devices:    3,
		Heartbeats: 5,
		FrontEnd:   FleetFrontEndHTTP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 15 || res.WireCalls != 15 {
		t.Errorf("messages/wire = %d/%d, want 15/15", res.Messages, res.WireCalls)
	}
	if res.MsgsPerSec <= 0 || res.Elapsed <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
}

// TestRunFleetLoadBatched smoke-runs the binary front end with coalescing:
// wire calls shrink by the batch factor (rounded up per device).
func TestRunFleetLoadBatched(t *testing.T) {
	res, err := RunFleetLoad(FleetLoadConfig{
		Design:     fleetDesign(),
		Devices:    2,
		Heartbeats: 9,
		BatchSize:  4,
		FrontEnd:   FleetFrontEndBin,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 18 {
		t.Errorf("messages = %d, want 18", res.Messages)
	}
	// ceil(9/4) = 3 wire calls per device.
	if res.WireCalls != 6 {
		t.Errorf("wire calls = %d, want 6", res.WireCalls)
	}
}

// TestRunFleetLoadDefaults proves the zero config still runs one device
// through one heartbeat over HTTP.
func TestRunFleetLoadDefaults(t *testing.T) {
	res, err := RunFleetLoad(FleetLoadConfig{Design: fleetDesign()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.WireCalls != 1 {
		t.Errorf("defaults = %+v, want 1 message over 1 wire call", res)
	}
}

func TestRunFleetLoadUnknownFrontEnd(t *testing.T) {
	_, err := RunFleetLoad(FleetLoadConfig{Design: fleetDesign(), FrontEnd: "carrier-pigeon"})
	if err == nil || !strings.Contains(err.Error(), "unknown front end") {
		t.Errorf("unknown front end = %v, want rejection", err)
	}
}
