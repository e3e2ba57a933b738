package httpapi

import (
	"errors"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
)

// TestStatusBatchOverHTTP round-trips a mixed batch through the HTTP
// boundary: the envelope succeeds, per-item results stay index-aligned,
// and per-item errors keep their wire codes for errors.Is.
func TestStatusBatchOverHTTP(t *testing.T) {
	_, client := newHTTPCloud(t, laxDesign())

	resp, err := client.HandleStatusBatch(protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: devID},
		{Kind: protocol.StatusHeartbeat, DeviceID: "ghost"},
		{Kind: protocol.StatusHeartbeat, DeviceID: devID,
			Readings: []protocol.Reading{{Name: "power_w", Value: 5}}},
	}})
	if err != nil {
		t.Fatalf("batch over HTTP: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if err := resp.Results[0].Err(); err != nil {
		t.Errorf("item 0 = %v, want success", err)
	}
	if err := resp.Results[1].Err(); !errors.Is(err, protocol.ErrUnknownDevice) {
		t.Errorf("item 1 = %v, want ErrUnknownDevice across the wire", err)
	}
	if err := resp.Results[2].Err(); err != nil {
		t.Errorf("item 2 = %v, want success", err)
	}
	if got := resp.FirstError(); !errors.Is(got, protocol.ErrUnknownDevice) {
		t.Errorf("FirstError = %v, want the item-1 error", got)
	}
}

// TestStatusBatchOversizedBodyOverHTTP proves the pooled decode path still
// enforces the body bound: a batch past 1 MiB is answered with the
// payload_too_large wire code, not a hangup.
func TestStatusBatchOversizedBodyOverHTTP(t *testing.T) {
	_, client := newHTTPCloud(t, laxDesign())

	_, err := client.HandleStatusBatch(protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
		{Kind: protocol.StatusHeartbeat, DeviceID: devID, Firmware: strings.Repeat("v", 2<<20)},
	}})
	if !errors.Is(err, protocol.ErrPayloadTooLarge) {
		t.Errorf("oversized batch = %v, want ErrPayloadTooLarge", err)
	}
}
