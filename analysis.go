package iotbind

import (
	"io"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/devid"
	"github.com/iotbind/iotbind/internal/report"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// ---- attack-surface analysis ----------------------------------------------

// Finding is one predicted attack outcome with its reasoning.
type Finding = analysis.Finding

// PredictAll evaluates every Table II variant against a design by asking
// the binding model each row — no emulation.
func PredictAll(d DesignSpec) []Finding { return analysis.PredictAll(d) }

// DelegationFinding is one predicted A6 (delegation) attack outcome
// with its reasoning.
type DelegationFinding = analysis.DelegationFinding

// PredictDelegation evaluates the A6 delegation rows — evicted-guest
// residual control, re-delegation escalation, revocation race — against
// a design from its policy rules alone, no emulation.
func PredictDelegation(d DesignSpec) []DelegationFinding { return analysis.PredictDelegation(d) }

// ---- vendor profiles --------------------------------------------------------

// Profile is one evaluated product: design, ID scheme and published
// results.
type Profile = vendors.Profile

// PaperRow is one vendor's published Table III row.
type PaperRow = vendors.PaperRow

// Profiles returns the ten Table III products in row order.
func Profiles() []Profile { return vendors.Profiles() }

// ByVendor returns the Table III profile with the given vendor name.
func ByVendor(name string) (Profile, bool) { return vendors.ByVendor(name) }

// SecureReference is the capability-based baseline the paper recommends.
func SecureReference() Profile { return vendors.SecureReference() }

// RecommendedPractice combines dynamic device tokens with capability
// binding, per the paper's assessments.
func RecommendedPractice() Profile { return vendors.RecommendedPractice() }

// WorstCase combines every flawed design choice the paper observed.
func WorstCase() Profile { return vendors.WorstCase() }

// EvaluateVendors runs the full attack suite against each profile
// concurrently — the parallel Table III regeneration. Rows come back in
// the input order and match a sequential sweep exactly.
func EvaluateVendors(profiles []Profile) ([]VendorResult, error) {
	return testbed.EvaluateVendors(profiles)
}

// MatchesPaper compares a measured row with the published row.
func MatchesPaper(measured, published PaperRow) bool {
	return testbed.MatchesPaper(measured, published)
}

// ---- device-ID schemes --------------------------------------------------------

// IDGenerator produces device IDs under a scheme and reports the
// attacker's search space.
type IDGenerator = devid.Generator

// EnumerationEstimate quantifies a brute-force campaign against an ID
// scheme.
type EnumerationEstimate = devid.EnumerationEstimate

// NewMACGenerator returns MAC-address IDs under a fixed vendor OUI (a
// 3-byte / 2^24 search space).
func NewMACGenerator(oui [3]byte) IDGenerator { return devid.NewMACGenerator(oui) }

// NewSerialGenerator returns sequential decimal serials; the effective
// search space is the shipped volume.
func NewSerialGenerator(prefix string, digits int, shipped uint64) (IDGenerator, error) {
	return devid.NewSerialGenerator(prefix, digits, shipped)
}

// NewShortDigitsGenerator returns fixed-width all-digit IDs (the 6-7 digit
// schemes of the incidents the paper cites).
func NewShortDigitsGenerator(digits int) (IDGenerator, error) {
	return devid.NewShortDigitsGenerator(digits)
}

// NewRandomIDGenerator returns 128-bit random IDs, the secure baseline.
func NewRandomIDGenerator(seed uint64) IDGenerator { return devid.NewRandomGenerator(seed) }

// EstimateEnumeration computes search space, entropy and sweep time for a
// scheme at a given forged-request rate.
func EstimateEnumeration(g IDGenerator, ratePerSecond float64) (EnumerationEstimate, error) {
	return devid.Estimate(g, ratePerSecond)
}

// ---- report rendering -----------------------------------------------------------

// WriteNotationTable renders Table I.
func WriteNotationTable(w io.Writer) error { return report.WriteNotationTable(w) }

// WriteStateMachine renders the Figure 2 state machine.
func WriteStateMachine(w io.Writer) error { return report.WriteStateMachine(w) }

// WriteTaxonomy renders the derived Table II.
func WriteTaxonomy(w io.Writer) error { return report.WriteTaxonomy(w) }

// WriteTable3 renders the measured Table III with paper-vs-measured
// verdicts.
func WriteTable3(w io.Writer, results []VendorResult) error { return report.WriteTable3(w, results) }

// WriteFindings renders the analyzer's predictions for one design.
func WriteFindings(w io.Writer, design DesignSpec, findings []Finding) error {
	return report.WriteFindings(w, design, findings)
}

// WriteSearchSpace renders the device-ID enumeration analysis.
func WriteSearchSpace(w io.Writer, estimates []EnumerationEstimate) error {
	return report.WriteSearchSpace(w, estimates)
}

// WriteVerification renders the model checker's verdicts for one design.
func WriteVerification(w io.Writer, design DesignSpec, results []VerificationResult) error {
	return report.WriteVerification(w, design, results)
}

// WriteDelegation renders the A6 delegation sweep for one design: the
// analyzer's prediction next to the delegation sub-model's verdict.
func WriteDelegation(w io.Writer, design DesignSpec, findings []DelegationFinding, verdicts []DelegationVerdict) error {
	return report.WriteDelegation(w, design, findings, verdicts)
}

// WriteDiscovery renders automatic attack-discovery results.
func WriteDiscovery(w io.Writer, design DesignSpec, attacks []DiscoveredAttack) error {
	return report.WriteDiscovery(w, design, attacks)
}
