package protocol

import (
	"errors"
	"fmt"
)

// StatusBatchRequest carries many status messages in one wire round trip.
// The binding life cycle is dominated by heartbeats (Figure 2's self-loops
// vastly outnumber the six state-changing edges), so a batch amortizes
// the per-message transport cost. The cloud applies the items in order,
// each exactly as it would apply the same status sent alone, and each item
// succeeds or fails independently — one bad credential never poisons the
// rest of the batch.
type StatusBatchRequest struct {
	// Items are the individual status messages, in sending order.
	Items []StatusRequest `json:"items"`
	// SourceIP is the observed source address of the batch (set by the
	// transport, not the sender); the cloud applies it to every item.
	SourceIP string `json:"-"`
}

// StatusBatchResult is the outcome of one batch item: either the status
// response or a wire-coded error. Errors travel as wire codes so the
// per-item error vocabulary survives both remote front ends exactly like
// top-level errors do.
type StatusBatchResult struct {
	// Response is the item's status response, valid when Code is empty.
	Response StatusResponse `json:"response"`
	// Code is the protocol wire code of the item's error, empty on
	// success.
	Code string `json:"code,omitempty"`
	// Message is the human-readable error detail.
	Message string `json:"message,omitempty"`
}

// Err reconstructs the item's error: nil on success, the protocol
// sentinel (wrapped with the message) for known wire codes, and an opaque
// error otherwise — the same mapping the front ends apply to top-level
// errors.
func (r StatusBatchResult) Err() error {
	if r.Code == "" {
		return nil
	}
	if sentinel, ok := FromWireCode(r.Code); ok {
		return fmt.Errorf("%s: %w", r.Message, sentinel)
	}
	return fmt.Errorf("%s (%s)", r.Message, r.Code)
}

// MakeBatchResult folds a handler outcome into a transportable result.
// Errors without a wire code are carried under the "internal" code.
func MakeBatchResult(resp StatusResponse, err error) StatusBatchResult {
	if err == nil {
		return StatusBatchResult{Response: resp}
	}
	code, ok := WireCode(err)
	if !ok {
		code = "internal"
	}
	return StatusBatchResult{Code: code, Message: err.Error()}
}

// StatusBatchResponse carries the per-item outcomes, index-aligned with
// the request's Items.
type StatusBatchResponse struct {
	Results []StatusBatchResult `json:"results"`
}

// FirstError returns the first failed item's reconstructed error, joined
// with its index, or nil when every item succeeded. Callers that treat a
// batch as all-or-nothing (the device coalescer reporting a flush) use it
// to surface partial failure without losing the successful items'
// deliveries.
func (r StatusBatchResponse) FirstError() error {
	for i, res := range r.Results {
		if err := res.Err(); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// ErrBatchMismatch is returned by clients when a server answers a batch
// with a result count different from the item count — a framing bug, not a
// per-item failure.
var ErrBatchMismatch = errors.New("protocol: batch result count mismatch")
