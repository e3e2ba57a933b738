package core_test

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
)

// ExampleNext walks the Figure 2 state machine.
func ExampleNext() {
	state := core.StateInitial
	for _, e := range []core.Event{core.EventStatus, core.EventBind} {
		next, err := core.Next(state, e)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%v --%v--> %v\n", state, e, next)
		state = next
	}
	// Output:
	// initial --status--> online
	// online --bind--> control
}
