// Package transport defines the client-side interface to an IoT cloud and
// the source-address stamping that separates the parties: every request a
// party sends carries the public IP of the network it sits on, assigned by
// the transport rather than the sender (so it cannot be forged, matching
// how the paper's source-IP co-location defence works on device #7).
package transport

import "github.com/iotbind/iotbind/internal/protocol"

// stamped is the wrapped Cloud with the SourceIP of every network-facing
// request overwritten by the wrapped party's address. The five methods
// below are the operations whose request carries a SourceIP; every other
// call reaches the embedded cloud untouched.
type stamped struct {
	Cloud
	ip string
}

// StampSource returns a Cloud view whose requests all carry the given
// source address. Parties receive a stamped transport from the network
// they sit on; they cannot choose the address themselves.
func StampSource(cloud Cloud, ip string) Cloud {
	return &stamped{Cloud: cloud, ip: ip}
}

func (s *stamped) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	req.SourceIP = s.ip
	return s.Cloud.HandleStatus(req)
}

func (s *stamped) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	// The batch travels as one wire message from one network, so a single
	// batch-level stamp covers every item; the cloud fans it out.
	req.SourceIP = s.ip
	return s.Cloud.HandleStatusBatch(req)
}

func (s *stamped) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	req.SourceIP = s.ip
	return s.Cloud.HandleBind(req)
}

func (s *stamped) HandleUnbind(req protocol.UnbindRequest) error {
	req.SourceIP = s.ip
	return s.Cloud.HandleUnbind(req)
}

func (s *stamped) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	req.SourceIP = s.ip
	return s.Cloud.HandleControl(req)
}
