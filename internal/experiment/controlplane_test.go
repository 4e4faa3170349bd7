package experiment

import (
	"slices"
	"strings"
	"testing"
	"time"

	"autovac/internal/fleet"
)

// TestRenderControlPlaneSubMillisecond pins three significant digits
// in the control-plane table: on a small fleet a long-poll row
// converges and syncs in under a millisecond, which whole-millisecond
// rounding printed as 1ms and 0s.
func TestRenderControlPlaneSubMillisecond(t *testing.T) {
	rep := &ControlPlaneReport{
		Hosts: 64, Waves: 3, VaccinesPerWave: 8, PollInterval: 2 * time.Second,
		Rows: []ControlPlaneRow{{Mode: "long-poll/binary", Result: &fleet.ControlPlaneResult{
			ConvergeTime: 734567 * time.Nanosecond,
			SyncP50:      412345 * time.Nanosecond,
			SyncP99:      2345678 * time.Nanosecond,
			Requests:     192, OriginRequests: 192, BytesOnWire: 40960, Deltas: 192,
		}}},
	}
	out := RenderControlPlane(rep)
	var row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "long-poll/binary") {
			row = line
		}
	}
	if got, want := strings.Fields(row), []string{"long-poll/binary", "735µs", "412µs", "2.35ms"}; len(got) < len(want) ||
		!slices.Equal(got[:len(want)], want) {
		t.Errorf("row = %q, want it to start with %q\n%s", row, want, out)
	}
}
