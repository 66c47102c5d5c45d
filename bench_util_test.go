package pasched_test

import (
	"fmt"
	"strings"

	"pasched/internal/obs"
	"pasched/internal/sim"
)

// discardEvents is a recorder sink that drops every window.
type discardEvents struct{}

func (discardEvents) Events([]obs.Event) error { return nil }
func (discardEvents) Finish(sim.Time) error    { return nil }

// fmtSscan parses the leading float in a table/check cell, tolerating
// trailing annotations.
func fmtSscan(s string, v *float64) (int, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	return fmt.Sscan(s, v)
}
