package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
)

// WriteVerification renders the model checker's verdicts for one design.
func WriteVerification(w io.Writer, design core.DesignSpec, results []modelcheck.Result) error {
	tw := newTableWriter(w, "Property", "Verdict", "Counterexample / coverage")
	for _, r := range results {
		if r.Holds {
			tw.row(r.Property.String(), "HOLDS",
				fmt.Sprintf("all %d reachable states", r.StatesExplored))
			continue
		}
		moves := make([]string, 0, len(r.Counterexample))
		for _, m := range r.Counterexample {
			moves = append(moves, m.String())
		}
		tw.row(r.Property.String(), "VIOLATED", strings.Join(moves, " , "))
	}
	return tw.flush(fmt.Sprintf("Formal verification (exhaustive state-space search): %s", design.Name))
}
