// Package iotbind is a toolkit for analyzing and emulating the remote
// binding between IoT devices and users, reproducing Chen et al., "Your
// IoTs Are (Not) Mine: On the Remote Binding Between IoT Devices and
// Users" (DSN 2019).
//
// Remote binding is the process that bootstraps remote communication
// between a user and an IoT device through the vendor's cloud: the user
// and the device each authenticate to the cloud, a binding between them is
// created, and the binding is later revoked on reset or removal. The paper
// models the cloud's view of a device as a four-state "device shadow"
// state machine driven by three primitive messages (Status, Bind, Unbind),
// systematically derives an attack taxonomy from it, and demonstrates four
// attack classes — data injection/stealing (A1), binding denial-of-service
// (A2), device unbinding (A3), and device hijacking (A4) — against ten
// commercial products.
//
// The package exports what the commands under cmd/ and the programs
// under examples/ use, and the types their signatures name:
//
//   - the design-description vocabulary for remote-binding solutions
//     (DesignSpec, UnbindForm);
//   - an attack-surface analyzer that predicts, from a design description
//     alone, which attacks succeed (PredictAll, PredictDelegation);
//   - a full three-party emulation: vendor cloud (NewRegistry, NewCloud),
//     device firmware agent (NewDevice), mobile-app agent (NewApp),
//     simulated home networks (NewNetwork), and a remote attacker toolkit
//     (NewAttacker);
//   - a deterministic experiment testbed that launches every attack
//     against a live emulated cloud and classifies outcomes exactly as
//     Table III does (NewTestbed, EvaluateAll, EvaluateVendors,
//     MatchesPaper);
//   - the ten vendor profiles of Table III with the paper's published
//     results (Profiles, ByVendor), plus reference designs
//     (SecureReference, RecommendedPractice, WorstCase);
//   - device-ID scheme generators with search-space and enumeration-time
//     analysis (NewMACGenerator, EstimateEnumeration, ...) and fleet
//     exposure campaigns (RunCampaign);
//   - attack discovery, model checking and hardening (DiscoverAttacks,
//     VerifyDesign, VerifyDelegation, RecommendHardening);
//   - the four-party hub architecture (NewHub, NewSubDevice) and
//     protocol tracing (NewTraceRecorder, TraceTransport, WriteTrace);
//   - HTTP/JSON and binary front ends so a cloud can be served across a
//     real network boundary (NewHTTPServer, NewHTTPClient, NewBinServer);
//   - report renderers that regenerate the paper's tables from live
//     experiment output (WriteTable3, WriteTaxonomy, ...).
//
// Experiments run under an injected clock, step every agent explicitly,
// and use only the standard library. Three entry points start
// goroutines: a BinServer's Serve (its epoll pollers, or a pump goroutine
// per connection where epoll is unavailable), EvaluateVendors (up to
// GOMAXPROCS workers, rows still in input order), and RunCampaign with
// Workers > 1 (that many sweep workers, the same curve as a sequential
// run).
package iotbind

import (
	"github.com/iotbind/iotbind/internal/core"
)

// DesignSpec describes one remote-binding solution: identifier and message
// designs plus the cloud-side policy checks that decide every attack
// outcome.
type DesignSpec = core.DesignSpec

// UnbindForm is one accepted unbinding request shape (Section IV-C).
type UnbindForm = core.UnbindForm

// Design values the examples spell out: static device-ID authentication
// (Figure 3), app-side ACL binding (Figure 4), and two unbinding forms.
const (
	AuthDevID            = core.AuthDevID
	BindACLApp           = core.BindACLApp
	UnbindDevIDUserToken = core.UnbindDevIDUserToken
	UnbindDevIDAlone     = core.UnbindDevIDAlone
)

// OutcomeSucceeded is the ✓ of Table III: the attack worked.
const OutcomeSucceeded = core.OutcomeSucceeded
