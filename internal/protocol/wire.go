package protocol

import "errors"

// Stable wire codes for the protocol error vocabulary, shared by every
// remote front end (HTTP and binapi) so errors survive serialization and
// errors.Is keeps working across process boundaries.
var wireCodes = []struct {
	err  error
	code string
}{
	{ErrAuthFailed, "auth_failed"},
	{ErrUnknownDevice, "unknown_device"},
	{ErrAlreadyBound, "already_bound"},
	{ErrNotBound, "not_bound"},
	{ErrNotPermitted, "not_permitted"},
	{ErrUnsupported, "unsupported"},
	{ErrOutsideWindow, "outside_window"},
	{ErrDeviceOffline, "device_offline"},
	{ErrUserExists, "user_exists"},
	{ErrPayloadTooLarge, "payload_too_large"},
	{ErrBackpressure, "wire_backpressure"},
	{ErrBadRequest, "bad_request"},
}

// WireCode returns the stable code for a protocol sentinel error wrapped
// anywhere in err's chain, or ok=false for non-protocol errors.
func WireCode(err error) (code string, ok bool) {
	for _, c := range wireCodes {
		if errors.Is(err, c.err) {
			return c.code, true
		}
	}
	return "", false
}

// FromWireCode returns the sentinel error a wire code stands for.
func FromWireCode(code string) (error, bool) {
	for _, c := range wireCodes {
		if c.code == code {
			return c.err, true
		}
	}
	return nil, false
}

// WireCodes lists every (error, code) pair, for front ends that need to
// attach extra metadata (e.g. HTTP status codes).
func WireCodes() []struct {
	Err  error
	Code string
} {
	out := make([]struct {
		Err  error
		Code string
	}, 0, len(wireCodes))
	for _, c := range wireCodes {
		out = append(out, struct {
			Err  error
			Code string
		}{c.err, c.code})
	}
	return out
}
