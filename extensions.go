package iotbind

import (
	"io"
	"time"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/campaign"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/discover"
	"github.com/iotbind/iotbind/internal/harden"
	"github.com/iotbind/iotbind/internal/hub"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/trace"
)

// ---- automatic attack discovery (Section VIII future work) ---------------

// DiscoveredAttack is one minimal attack found by the searcher: a victim
// scenario, an adversarial goal, and the shortest forged-message sequence
// achieving it.
type DiscoveredAttack = discover.Attack

// DiscoverAttacks searches attacker action sequences up to maxDepth
// against the design on live emulations, returning minimal sequences per
// reachable (scenario, goal). With no taxonomy knowledge it rediscovers
// the paper's attacks — e.g. the two-step A4-3 hijack chain on the
// TP-LINK profile.
func DiscoverAttacks(design DesignSpec, maxDepth int) ([]DiscoveredAttack, error) {
	return discover.Search(design, maxDepth)
}

// ---- formal verification (Section IX future work) --------------------------

// VerificationResult is one property's verdict, with a minimal
// counterexample trace when violated.
type VerificationResult = modelcheck.Result

// VerifyDesign formally verifies a design by exhaustive exploration of
// its abstract protocol state space: every reachable state is checked
// against the five safety properties, and each violation comes with a
// minimal counterexample (e.g. the A4-3 chain on the TP-LINK profile).
func VerifyDesign(design DesignSpec) ([]VerificationResult, error) {
	return modelcheck.Check(design)
}

// DelegationVerdict is one A6 row's verdict, with a minimal
// counterexample trace when the attack is reachable.
type DelegationVerdict = modelcheck.DelegationResult

// VerifyDelegation exhaustively explores the delegation lattice's
// abstract state space under the design — one owner, a guest, a
// sub-guest, their grants and minted tokens, and an in-flight control
// in the revocation-race window — and decides each A6 row with a
// minimal counterexample when it succeeds.
func VerifyDelegation(design DesignSpec) ([]DelegationVerdict, error) {
	return modelcheck.CheckDelegation(design)
}

// ---- fleet exposure campaigns (Sections I, V-C at scale) -------------------

// CampaignConfig describes a fleet-scale ID-sweep campaign.
type CampaignConfig = campaign.Config

// CampaignPoint is the campaign state at one observation time.
type CampaignPoint = campaign.Point

// RunCampaign sweeps an ID space against an emulated fleet and reports
// the fraction of bindings occupied over simulated time — the scalable
// denial-of-service of Section V-C, measured.
func RunCampaign(cfg CampaignConfig) ([]CampaignPoint, error) { return campaign.Run(cfg) }

// WriteCampaign renders a campaign's exposure curve.
func WriteCampaign(w io.Writer, title string, points []CampaignPoint) error {
	return campaign.WriteTable(w, title, points)
}

// ---- hardening recommendations (Section VII lessons, as a repair engine) ----

// HardeningPlan is a minimal repair recommendation with the hardened
// design and its verification status.
type HardeningPlan = harden.Plan

// RecommendHardening searches for a minimal set of hardening steps that
// closes every predicted attack against the design, verifying the result
// with the model checker.
func RecommendHardening(design DesignSpec) (HardeningPlan, error) {
	return harden.Recommend(design)
}

// ---- four-party architecture (hub + low-power devices) --------------------

// Hub bridges a personal-area network of low-power sub-devices to the
// cloud through an ordinary device identity (the Section VIII four-party
// architecture).
type Hub = hub.Hub

// SubDevice is a Zigbee/BLE-style end node with no cloud identity of its
// own.
type SubDevice = hub.SubDevice

// HubTargetArg is the command argument naming the sub-device a command is
// routed to.
const HubTargetArg = hub.TargetArg

// NewHub creates a hub whose cloud-facing behaviour follows the design.
func NewHub(cfg DeviceConfig, design DesignSpec, cloudTransport CloudTransport, opts ...device.Option) (*Hub, error) {
	return hub.New(cfg, design, cloudTransport, opts...)
}

// NewSubDevice creates a low-power end node for pairing with a hub.
func NewSubDevice(name, kind string) *SubDevice { return hub.NewSubDevice(name, kind) }

// ---- protocol tracing ------------------------------------------------------

// TraceRecorder accumulates the message sequence between parties and a
// cloud — the executable form of the paper's Figure 1/3/4 diagrams.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// TraceTransport wraps a cloud transport so every call is recorded under
// the given party label.
func TraceTransport(inner CloudTransport, party string, rec *TraceRecorder) CloudTransport {
	return trace.Transport(inner, party, rec)
}

// WriteTrace renders a recorded sequence as a Figure 1-style diagram.
func WriteTrace(w io.Writer, rec *TraceRecorder, title string) error {
	return rec.Write(w, title)
}

// ---- binary persistent-connection front end --------------------------------

// BinServer serves a cloud over the binapi wire protocol: persistent
// connections carrying multiplexed binary frames (the WAL's frame
// geometry), each dispatched by the goroutine that holds its bytes, with
// credit-based per-connection backpressure.
type BinServer = binapi.Server

// NewBinServer wraps a cloud for the binary front end; call Serve with
// a listener (socket mode), Pipe for in-process connections, and Close
// to shut down.
func NewBinServer(c CloudTransport, opts ...binapi.Option) *BinServer {
	return binapi.NewServer(c, opts...)
}

// WithIdleTimeout makes a BinServer drop a socket connection that sends
// nothing for d, so a silent or half-open client cannot hold a socket
// (and, on the pump path, a goroutine) forever. Zero keeps connections
// indefinitely.
func WithIdleTimeout(d time.Duration) binapi.Option { return binapi.WithIdleTimeout(d) }
