// Package report renders the paper's tables from live experiment output:
// the Table I notation reference, the derived Table II attack taxonomy,
// the measured Table III vendor matrix with paper-vs-measured diffing, and
// the device-ID search-space analysis behind the Section I enumeration
// claims.
package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/devid"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// WriteNotationTable renders Table I.
func WriteNotationTable(w io.Writer) error {
	tw := newTableWriter(w, "Notation", "Meaning")
	for _, row := range core.NotationTable() {
		tw.row(row.Notation, row.Description)
	}
	return tw.flush("Table I: Notations")
}

// WriteStateMachine renders the Figure 2 state machine: the four states
// and every valid transition, with the six numbered edges marked.
func WriteStateMachine(w io.Writer) error {
	numbered := make(map[core.Transition]int, 6)
	for i, e := range core.Figure2Edges() {
		numbered[e] = i + 1
	}
	tw := newTableWriter(w, "From", "Event", "To", "Figure 2 edge")
	for _, tr := range core.TransitionTable() {
		label := ""
		if n, ok := numbered[tr]; ok {
			label = fmt.Sprintf("#%d", n)
		}
		tw.row(tr.From.String(), tr.Event.String(), tr.To.String(), label)
	}
	return tw.flush("Figure 2: Device-shadow state machine")
}

// WriteTaxonomy renders the derived Table II.
func WriteTaxonomy(w io.Writer) error {
	rows, err := analysis.DeriveTaxonomy()
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	tw := newTableWriter(w, "Attack", "Forged message types", "Targeted states", "End state", "Consequence")
	for _, row := range rows {
		targets := make([]string, 0, len(row.TargetStates))
		for _, s := range row.TargetStates {
			targets = append(targets, s.String())
		}
		tw.row(row.Variant.String(), row.ForgedMessage, strings.Join(targets, ", "),
			row.EndState.String(), row.Consequence)
	}
	return tw.flush("Table II: The taxonomy of attacks in remote binding (derived)")
}

// vendorRowCells renders one vendor's Table III cells from a measured row.
func vendorRowCells(row vendors.PaperRow) (a1, a2, a3, a4 string) {
	return row.A1.String(), row.A2.String(), variantCell(row.A3), variantCell(row.A4)
}

func variantCell(succeeded []core.AttackVariant) string {
	if len(succeeded) == 0 {
		return "✗"
	}
	parts := make([]string, 0, len(succeeded))
	for _, v := range succeeded {
		parts = append(parts, v.String())
	}
	return strings.Join(parts, " & ")
}

// WriteTable3 renders the measured Table III and appends a
// paper-vs-measured verdict per row.
func WriteTable3(w io.Writer, results []testbed.VendorResult) error {
	tw := newTableWriter(w, "#", "Vendor", "Device Type", "Status", "Bind", "Unbind", "A1", "A2", "A3", "A4", "vs paper")
	matches := 0
	for _, vr := range results {
		p := vr.Profile
		a1, a2, a3, a4 := vendorRowCells(vr.Row)
		verdict := "MATCH"
		if testbed.MatchesPaper(vr.Row, p.Paper) {
			matches++
		} else {
			verdict = "DIFFERS"
		}
		tw.row(
			fmt.Sprintf("%d", p.Number), p.Vendor, p.DeviceType,
			p.Design.DeviceAuth.String(), bindCell(p.Design), p.Design.UnbindNotation(),
			a1, a2, a3, a4, verdict,
		)
	}
	title := fmt.Sprintf("Table III: Evaluation results on experimental devices (measured; %d/%d rows match the paper)",
		matches, len(results))
	return tw.flush(title)
}

func bindCell(d core.DesignSpec) string {
	switch d.Binding {
	case core.BindACLApp:
		return "Sent by the app"
	case core.BindACLDevice:
		return "Sent by the device"
	case core.BindCapability:
		return "Capability token"
	default:
		return "?"
	}
}

// WriteFindings renders the analyzer's per-variant predictions for one
// design, with reasons.
func WriteFindings(w io.Writer, design core.DesignSpec, findings []analysis.Finding) error {
	tw := newTableWriter(w, "Attack", "Outcome", "Reason")
	for _, f := range findings {
		tw.row(f.Variant.String(), f.Outcome.String(), f.Reason)
	}
	return tw.flush(fmt.Sprintf("Attack-surface analysis: %s", design.Name))
}

// WriteDelegation renders the A6 delegation sweep for one design: the
// analyzer's rule-based prediction next to the exhaustive delegation
// sub-model's verdict per attack row, with the analyzer's reason.
func WriteDelegation(w io.Writer, design core.DesignSpec, findings []analysis.DelegationFinding, verdicts []modelcheck.DelegationResult) error {
	tw := newTableWriter(w, "Attack", "Predicted", "Model", "States", "Reason")
	for i, f := range findings {
		model, states := "-", "-"
		if i < len(verdicts) {
			model = outcomeWord(verdicts[i].Succeeds)
			states = fmt.Sprintf("%d", verdicts[i].StatesExplored)
		}
		tw.row(f.Attack.String(), outcomeWord(f.Outcome.Succeeded()), model, states, f.Reason)
	}
	return tw.flush(fmt.Sprintf("Delegation (A6) sweep: %s", design.Name))
}

func outcomeWord(succeeds bool) string {
	if succeeds {
		return "succeeds"
	}
	return "blocked"
}

// WriteSearchSpace renders the device-ID enumeration analysis for a set of
// schemes at a given forged-request rate.
func WriteSearchSpace(w io.Writer, estimates []devid.EnumerationEstimate) error {
	tw := newTableWriter(w, "Scheme", "Search space", "Entropy (bits)", "Rate (req/s)", "Full sweep", "Expected hit", "Within an hour")
	for _, est := range estimates {
		within := "no"
		if est.WithinHour {
			within = "yes"
		}
		tw.row(
			est.Scheme.String(),
			est.SearchSpace.String(),
			fmt.Sprintf("%.1f", est.EntropyBits),
			fmt.Sprintf("%.0f", est.RatePerSecond),
			devid.HumanDuration(est.FullSweep),
			devid.HumanDuration(est.Expected),
			within,
		)
	}
	return tw.flush("Device-ID search spaces and enumeration times (Sections I, V-C)")
}

// tableWriter accumulates rows and renders an aligned ASCII table.
type tableWriter struct {
	w       io.Writer
	headers []string
	rows    [][]string
	err     error
}

func newTableWriter(w io.Writer, headers ...string) *tableWriter {
	return &tableWriter{w: w, headers: headers}
}

func (t *tableWriter) row(cells ...string) {
	if len(cells) != len(t.headers) {
		t.err = fmt.Errorf("report: row has %d cells, want %d", len(cells), len(t.headers))
		return
	}
	t.rows = append(t.rows, cells)
}

func (t *tableWriter) flush(title string) error {
	if t.err != nil {
		return t.err
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := displayWidth(cell); w > widths[i] {
				widths[i] = w
			}
		}
	}

	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-displayWidth(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	b.WriteString("\n")
	_, err := io.WriteString(t.w, b.String())
	return err
}

// displayWidth approximates terminal width: every rune counts one column
// (the table marks ✓/✗ are single width).
func displayWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}
