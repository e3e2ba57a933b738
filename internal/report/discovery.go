package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/discover"
)

// WriteDiscovery renders the automatic attack-discovery results for one
// design.
func WriteDiscovery(w io.Writer, design core.DesignSpec, attacks []discover.Attack) error {
	if len(attacks) == 0 {
		_, err := fmt.Fprintf(w, "Automatic attack discovery: %s\nno attack sequence achieves any adversarial goal\n\n", design.Name)
		return err
	}
	tw := newTableWriter(w, "Scenario", "Goal", "Minimal sequence")
	for _, a := range attacks {
		parts := make([]string, 0, len(a.Sequence))
		for _, act := range a.Sequence {
			parts = append(parts, act.String())
		}
		tw.row(a.Scenario.String(), a.Goal.String(), strings.Join(parts, " , "))
	}
	return tw.flush(fmt.Sprintf("Automatic attack discovery: %s", design.Name))
}
