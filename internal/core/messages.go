package core

import "fmt"

// MessageKind is one of the three primitive message types that drive shadow
// state transitions (Section III-B). Control messages and other traffic do
// not change binding state and are deliberately excluded from the model.
type MessageKind int

// The three primitive message kinds.
const (
	// MsgStatus is a registration or heartbeat message sent by the device.
	// Its reception marks the device online; its absence past the
	// heartbeat deadline marks the device offline.
	MsgStatus MessageKind = iota + 1
	// MsgBind creates a binding between a user and a device in the cloud.
	// It may be sent by the app or, in device-initiated designs, by the
	// device itself.
	MsgBind
	// MsgUnbind revokes an existing binding. It may be sent by the app or
	// by the device (e.g. on physical reset).
	MsgUnbind
)

// Valid reports whether k is one of the defined message kinds.
func (k MessageKind) Valid() bool { return k >= MsgStatus && k <= MsgUnbind }

// String implements fmt.Stringer using the paper's notation (Table I).
func (k MessageKind) String() string {
	switch k {
	case MsgStatus:
		return "Status"
	case MsgBind:
		return "Bind"
	case MsgUnbind:
		return "Unbind"
	default:
		return fmt.Sprintf("MessageKind(%d)", int(k))
	}
}

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

// Notation names a credential or identifier field from Table I. The
// constants exist so that reports and analysis output can speak the paper's
// exact vocabulary.
type Notation string

// Table I notations.
const (
	// NotationStatus: messages to report device status (sent by the device).
	NotationStatus Notation = "Status"
	// NotationBind: messages to create bindings in the cloud.
	NotationBind Notation = "Bind"
	// NotationUnbind: messages to revoke bindings in the cloud.
	NotationUnbind Notation = "Unbind"
	// NotationDevID: a piece of definite (static) data for device authentication.
	NotationDevID Notation = "DevId"
	// NotationDevToken: a piece of random data for device authentication.
	NotationDevToken Notation = "DevToken"
	// NotationBindToken: a piece of random data for the authorization in binding creation.
	NotationBindToken Notation = "BindToken"
	// NotationUserToken: a piece of random data for user authentication.
	NotationUserToken Notation = "UserToken"
	// NotationUserID: identifier (e.g. email address) of a user account.
	NotationUserID Notation = "UserId"
	// NotationUserPw: password of a user account.
	NotationUserPw Notation = "UserPw"
)

// NotationTable returns Table I as (notation, description) pairs in the
// paper's order.
func NotationTable() []struct {
	Notation    Notation
	Description string
} {
	return []struct {
		Notation    Notation
		Description string
	}{
		{NotationStatus, "Messages to report device status (sent by the device)"},
		{NotationBind, "Messages to create bindings in the cloud"},
		{NotationUnbind, "Messages to revoke bindings in the cloud"},
		{NotationDevID, "A piece of definite data for device authentication"},
		{NotationDevToken, "A piece of random data for device authentication"},
		{NotationBindToken, "A piece of random data for the authorization in binding creation"},
		{NotationUserToken, "A piece of random data for user authentication"},
		{NotationUserID, "Identifier (e.g. email address) of user account"},
		{NotationUserPw, "Password of user account"},
	}
}
