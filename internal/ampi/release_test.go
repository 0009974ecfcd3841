package ampi_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ult"
	"provirt/internal/workloads/synth"
)

// settledGoroutines polls until the goroutine count drops to want or
// the deadline passes, and returns the last count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunReleasesDeadlockedRanks: a world whose ranks all wait on a
// receive nobody sends stops with a stall error, and Run ends their
// coroutines without rewriting what the error and the rank states
// report.
func TestRunReleasesDeadlockedRanks(t *testing.T) {
	const vps = 4
	base := runtime.NumGoroutine()
	unwound := 0
	prog := &ampi.Program{
		Image: synth.HelloImage(),
		Main: func(r *ampi.Rank) {
			defer func() { unwound++ }()
			r.Recv((r.Rank()+1)%vps, 0)
			t.Error("deadlocked rank received a message")
		},
	}
	w, err := ampi.NewWorld(smallConfig(vps, core.KindPIEglobals), prog)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	if err == nil || !strings.Contains(err.Error(), "rank states: map[blocked:4]") {
		t.Fatalf("run ended with %v, want a stall of 4 blocked ranks", err)
	}
	if unwound != vps {
		t.Errorf("%d rank bodies unwound, want %d", unwound, vps)
	}
	for _, s := range w.Scheds() {
		if s.DoneCount() != 0 {
			t.Errorf("PE %d counts %d ranks done", s.PE.ID, s.DoneCount())
		}
		for _, th := range s.Threads() {
			if th.State() != ult.Blocked || th.Err != nil {
				t.Errorf("rank %d: state=%v err=%v", th.ID, th.State(), th.Err)
			}
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the deadlocked run, %d before", n, base)
	}
}
