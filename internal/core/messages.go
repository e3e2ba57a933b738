package core

import "fmt"

// Sender identifies which party originated a primitive message.
type Sender int

// The parties that may originate primitive messages.
const (
	// SenderDevice marks a message originated by the IoT device (or by an
	// attacker impersonating it).
	SenderDevice Sender = iota + 1
	// SenderApp marks a message originated by the user's mobile app (or by
	// an attacker's app/API client).
	SenderApp
)

// String implements fmt.Stringer.
func (s Sender) String() string {
	switch s {
	case SenderDevice:
		return "device"
	case SenderApp:
		return "app"
	default:
		return fmt.Sprintf("Sender(%d)", int(s))
	}
}

// NotationTable returns Table I as (notation, description) pairs in the
// paper's order: the names of its messages, credentials and identifiers.
func NotationTable() []struct {
	Notation    string
	Description string
} {
	return []struct {
		Notation    string
		Description string
	}{
		{"Status", "Messages to report device status (sent by the device)"},
		{"Bind", "Messages to create bindings in the cloud"},
		{"Unbind", "Messages to revoke bindings in the cloud"},
		{"DevId", "A piece of definite data for device authentication"},
		{"DevToken", "A piece of random data for device authentication"},
		{"BindToken", "A piece of random data for the authorization in binding creation"},
		{"UserToken", "A piece of random data for user authentication"},
		{"UserId", "Identifier (e.g. email address) of user account"},
		{"UserPw", "Password of user account"},
	}
}
