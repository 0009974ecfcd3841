package harness_test

import (
	"runtime"
	"testing"
	"time"

	"provirt/internal/harness"
)

// TestExperimentsLeaveNoRankGoroutines: the fault-tolerance and elastic
// experiments stop many worlds with ranks still parked (node failures,
// graceful drains). Each such world must end its ranks' coroutines, or
// every run — every request under `privbench -serve` — leaks them.
func TestExperimentsLeaveNoRankGoroutines(t *testing.T) {
	for _, name := range []string{"ftsweep", "elastic"} {
		e, ok := harness.LookupExperiment(name)
		if !ok {
			t.Fatalf("no experiment %q", name)
		}
		base := runtime.NumGoroutine()
		if _, err := e.Run(tinyRunOpts(1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Errorf("%s left %d goroutines running (%d before, %d after)", name, n-base, base, n)
		}
	}
}
