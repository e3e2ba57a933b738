// Package transport defines the client-side interface to an IoT cloud and
// the source-address stamping that separates the parties: every request a
// party sends carries the public IP of the network it sits on, assigned by
// the transport rather than the sender (so it cannot be forged, matching
// how the paper's source-IP co-location defence works on device #7).
package transport

import "github.com/iotbind/iotbind/internal/protocol"

// Stamped is the embedded Cloud with the SourceIP of every network-facing
// request overwritten by IP, the party's network address. The four methods
// below are the operations whose request carries a SourceIP; every other
// call reaches the embedded cloud untouched. Their value receivers stamp
// a Stamped passed by value or by pointer, so a rig may hold it inline.
type Stamped struct {
	Cloud
	IP string
}

// StampSource returns a Cloud view whose requests all carry the given
// source address. Parties receive a stamped transport from the network
// they sit on; they cannot choose the address themselves.
func StampSource(cloud Cloud, ip string) Cloud {
	return &Stamped{Cloud: cloud, IP: ip}
}

func (s Stamped) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	req.SourceIP = s.IP
	return s.Cloud.HandleStatus(req)
}

func (s Stamped) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	req.SourceIP = s.IP
	return s.Cloud.HandleBind(req)
}

func (s Stamped) HandleUnbind(req protocol.UnbindRequest) error {
	req.SourceIP = s.IP
	return s.Cloud.HandleUnbind(req)
}

func (s Stamped) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	req.SourceIP = s.IP
	return s.Cloud.HandleControl(req)
}
