package iotbind

import (
	"io"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/campaign"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/discover"
	"github.com/iotbind/iotbind/internal/harden"
	"github.com/iotbind/iotbind/internal/hub"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/trace"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// ---- automatic attack discovery (Section VIII future work) ---------------

// DiscoveredAttack is one minimal attack found by the searcher: a victim
// scenario, an adversarial goal, and the shortest forged-message sequence
// achieving it.
type DiscoveredAttack = discover.Attack

// AttackAction is one attacker primitive the searcher composes.
type AttackAction = discover.Action

// The attacker primitives.
const (
	ActForgeRegister        = discover.ActForgeRegister
	ActForgeDataHeartbeat   = discover.ActForgeDataHeartbeat
	ActForgeBind            = discover.ActForgeBind
	ActForgeUnbindUserToken = discover.ActForgeUnbindUserToken
	ActForgeUnbindDevID     = discover.ActForgeUnbindDevID
)

// AttackGoal is an adversarial objective.
type AttackGoal = discover.Goal

// The adversarial goals.
const (
	GoalDisconnect = discover.GoalDisconnect
	GoalHijack     = discover.GoalHijack
	GoalStealData  = discover.GoalStealData
	GoalInjectData = discover.GoalInjectData
	GoalOccupy     = discover.GoalOccupy
)

// AttackScenario is the victim situation a discovered sequence runs in.
type AttackScenario = discover.Scenario

// The victim scenarios.
const (
	ScenarioSteadyControl = discover.ScenarioSteadyControl
	ScenarioPreSetup      = discover.ScenarioPreSetup
	ScenarioSetupWindow   = discover.ScenarioSetupWindow
)

// DiscoverAttacks searches attacker action sequences up to maxDepth
// against the design on live emulations, returning minimal sequences per
// reachable (scenario, goal). With no taxonomy knowledge it rediscovers
// the paper's attacks — e.g. the two-step A4-3 hijack chain on the
// TP-LINK profile.
func DiscoverAttacks(design DesignSpec, maxDepth int) ([]DiscoveredAttack, error) {
	return discover.Search(design, maxDepth)
}

// ---- formal verification (Section IX future work) --------------------------

// VerifiedProperty is a safety property the model checker decides.
type VerifiedProperty = modelcheck.Property

// The verified safety properties.
const (
	PropNoHijack         = modelcheck.PropNoHijack
	PropBindingPreserved = modelcheck.PropBindingPreserved
	PropNoDataTheft      = modelcheck.PropNoDataTheft
	PropNoDataInjection  = modelcheck.PropNoDataInjection
)

// VerificationResult is one property's verdict, with a minimal
// counterexample trace when violated.
type VerificationResult = modelcheck.Result

// VerifyDesign formally verifies a design by exhaustive exploration of
// its abstract protocol state space: every reachable state is checked
// against the four safety properties, and each violation comes with a
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

// HardeningStep is one repair measure from the Section VII lesson
// vocabulary.
type HardeningStep = harden.Step

// The hardening measures.
const (
	StepDynamicDeviceToken   = harden.StepDynamicDeviceToken
	StepCapabilityBinding    = harden.StepCapabilityBinding
	StepCheckBindOwner       = harden.StepCheckBindOwner
	StepCheckUnbindOwner     = harden.StepCheckUnbindOwner
	StepDropDeviceOnlyUnbind = harden.StepDropDeviceOnlyUnbind
	StepPostBindingToken     = harden.StepPostBindingToken
)

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

// TraceEvent is one recorded message arrow.
type TraceEvent = trace.Event

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
// geometry), dispatched by a connection-striped event loop with
// credit-based per-connection backpressure.
type BinServer = binapi.Server

// BinClient is a multiplexed binapi connection; it implements
// CloudTransport, so devices, apps and the cluster router run over it
// unchanged.
type BinClient = binapi.Client

// BinReadiness selects the server's socket readiness source.
type BinReadiness = binapi.Readiness

// Socket readiness sources: auto picks raw epoll on Linux and the
// per-connection pump goroutine elsewhere (ConnLoadConfig.Readiness).
const (
	BinReadinessAuto  = binapi.ReadinessAuto
	BinReadinessPump  = binapi.ReadinessPump
	BinReadinessEpoll = binapi.ReadinessEpoll
)

// BinEpollSupported reports whether the raw-epoll readiness source is
// available on this platform.
func BinEpollSupported() bool { return binapi.EpollSupported() }

// NewBinServer wraps a cloud for the binary front end; call Serve with
// a listener (socket mode), Pipe for in-process connections, and Close
// to shut down.
func NewBinServer(c CloudTransport) *BinServer { return binapi.NewServer(c) }

// DialBin connects a binapi client to a BinServer over TCP.
func DialBin(addr string) (*BinClient, error) { return binapi.Dial(addr) }

// ConnLoadConfig parameterizes a connection-scale run against the
// binary front end.
type ConnLoadConfig = testbed.ConnLoadConfig

// ConnLoadResult reports a connection-scale run.
type ConnLoadResult = testbed.ConnLoadResult

// Connection-load transport modes.
const (
	ConnLoadPipe   = testbed.ConnLoadPipe
	ConnLoadSocket = testbed.ConnLoadSocket
)

// RunConnLoad opens many persistent binapi connections against one
// cloud and reports throughput, latency percentiles and per-connection
// wire cost.
func RunConnLoad(cfg ConnLoadConfig) (ConnLoadResult, error) { return testbed.RunConnLoad(cfg) }

// EnsureFDLimit raises RLIMIT_NOFILE until at least need descriptors
// are available, reporting whether it succeeded — the gate for the
// socket rungs of BenchmarkConnLoad.
func EnsureFDLimit(need int) bool { return testbed.EnsureFDLimit(need) }

// ---- cloud observability ---------------------------------------------------

// CloudStats is a snapshot of a cloud's activity counters.
type CloudStats = cloud.Stats

// ---- durability: write-ahead log and crash recovery ------------------------

// DurableCloud is a cloud service with crash durability: every mutation
// is logged to a write-ahead log before it is applied, state is
// checkpointed into snapshots, and reopening the same directory
// recovers the exact pre-crash state (latest snapshot + WAL replay).
type DurableCloud = cloud.Durable

// DurableCloudOptions configures a durable cloud.
type DurableCloudOptions = cloud.DurableOptions

// DurableRecovery reports what recovery did when a durable cloud opened.
type DurableRecovery = cloud.DurableRecovery

// DurableShardRecovery is one WAL shard's slice of a durable recovery.
type DurableShardRecovery = cloud.DurableShardRecovery

// OpenDurableCloud opens (or creates) a durable cloud rooted at dir.
func OpenDurableCloud(dir string, design DesignSpec, registry *Registry, opts DurableCloudOptions) (*DurableCloud, error) {
	return cloud.OpenDurable(dir, design, registry, opts)
}

// WithPersistentIdempotency includes per-shadow idempotency replay logs
// in snapshots, keeping keyed requests at-most-once across restarts.
func WithPersistentIdempotency() CloudOption { return cloud.WithPersistentIdempotency() }

// WAL is a segmented, checksummed write-ahead log.
type WAL = wal.Log

// WALOptions configures a write-ahead log.
type WALOptions = wal.Options

// WALSyncPolicy selects when appends reach stable storage.
type WALSyncPolicy = wal.SyncPolicy

// The fsync policies, ordered from weakest to strongest durability.
const (
	WALSyncOff         = wal.SyncOff
	WALSyncGrouped     = wal.SyncGrouped
	WALSyncEveryRecord = wal.SyncEveryRecord
)

// OpenWAL opens (or creates) a write-ahead log in dir, recovering any
// torn tail left by a crash.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) { return wal.Open(dir, opts) }

// ErrWALCorrupt reports corruption before the tail of a log — data that
// was once acknowledged as synced and can no longer be read.
var ErrWALCorrupt = wal.ErrCorrupt

// CrashRecoveryConfig parameterizes a seeded crash-fault run.
type CrashRecoveryConfig = testbed.CrashRecoveryConfig

// CrashRecoveryResult reports one crash-fault run.
type CrashRecoveryResult = testbed.CrashRecoveryResult

// RunCrashRecovery drives a workload against a durable cloud while a
// seeded kill schedule crashes it at WAL write stages, recovering after
// every crash, and proves the survivor's final state byte-identical to a
// never-crashed reference.
func RunCrashRecovery(cfg CrashRecoveryConfig) (CrashRecoveryResult, error) {
	return testbed.RunCrashRecovery(cfg)
}

// ShareStormConfig parameterizes a seeded share/revoke storm run.
type ShareStormConfig = testbed.ShareStormConfig

// ShareStormResult reports one share/revoke storm run.
type ShareStormResult = testbed.ShareStormResult

// RunShareStorm drives a delegation share/revoke storm — grants,
// chained re-delegations, cascading revocations and delegated control
// interleaved with owner traffic — against a durable cloud while a
// seeded kill schedule crashes it mid-storm, recovering after every
// crash, and proves the survivor's final state byte-identical to a
// never-crashed reference with no acknowledged op lost.
func RunShareStorm(cfg ShareStormConfig) (ShareStormResult, error) {
	return testbed.RunShareStorm(cfg)
}

// Compile-time checks that the traced transport still satisfies the
// transport contract.
var _ transport.Cloud = (CloudTransport)(nil)
