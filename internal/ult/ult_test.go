package ult

import (
	"runtime"
	"testing"
	"time"

	"provirt/internal/machine"
	"provirt/internal/sim"
)

func testSched(t *testing.T) (*Scheduler, *sim.Engine) {
	t.Helper()
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(cl.PE(0), cl.Engine, cl.Cost), cl.Engine
}

func TestThreadRunsToCompletion(t *testing.T) {
	s, e := testSched(t)
	ran := false
	th := NewThread(0, func(t *Thread) { ran = true })
	s.Adopt(th)
	e.Drain()
	if !ran || th.State() != Done {
		t.Fatalf("ran=%v state=%v", ran, th.State())
	}
	if s.DoneCount() != 1 {
		t.Fatalf("done count %d", s.DoneCount())
	}
}

func TestCooperativeInterleaving(t *testing.T) {
	s, e := testSched(t)
	var order []int
	mk := func(id int) *Thread {
		return NewThread(id, func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, id)
				th.Yield()
			}
		})
	}
	s.Adopt(mk(1))
	s.Adopt(mk(2))
	e.Drain()
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestAdvanceMovesClockAndLoad(t *testing.T) {
	s, e := testSched(t)
	th := NewThread(0, func(th *Thread) {
		th.Advance(5 * time.Millisecond)
	})
	s.Adopt(th)
	e.Drain()
	if s.Now() < 5*time.Millisecond {
		t.Fatalf("clock %v", s.Now())
	}
	if th.Load != 5*time.Millisecond {
		t.Fatalf("load %v", th.Load)
	}
	th.ResetLoad()
	if th.Load != 0 {
		t.Fatal("load not reset")
	}
	if s.BusyTime() != 5*time.Millisecond {
		t.Fatalf("busy %v", s.BusyTime())
	}
}

func TestSuspendWake(t *testing.T) {
	s, e := testSched(t)
	phase := 0
	th := NewThread(0, func(th *Thread) {
		phase = 1
		th.Suspend()
		phase = 2
	})
	s.Adopt(th)
	e.Drain()
	if phase != 1 || th.State() != Blocked {
		t.Fatalf("phase=%d state=%v", phase, th.State())
	}
	e.After(time.Microsecond, func() { th.Wake() })
	e.Drain()
	if phase != 2 || th.State() != Done {
		t.Fatalf("after wake: phase=%d state=%v", phase, th.State())
	}
}

func TestSwitchCostCharged(t *testing.T) {
	s, e := testSched(t)
	extra := 7 * time.Nanosecond
	s.SwitchExtra = func(from, to *Thread) sim.Time { return extra }
	th := NewThread(0, func(th *Thread) {
		for i := 0; i < 9; i++ {
			th.Yield()
		}
	})
	s.Adopt(th)
	e.Drain()
	if s.Switches() != 10 {
		t.Fatalf("%d switches", s.Switches())
	}
	want := 10 * (s.Cost.ULTSwitchBase + extra)
	if s.SwitchTime() != want {
		t.Fatalf("switch time %v, want %v", s.SwitchTime(), want)
	}
}

func TestPanicCapturedAsErr(t *testing.T) {
	s, e := testSched(t)
	th := NewThread(3, func(th *Thread) { panic("boom") })
	s.Adopt(th)
	e.Drain()
	if th.Err == nil || th.State() != Done {
		t.Fatalf("err=%v state=%v", th.Err, th.State())
	}
}

func TestRemoveAndAdoptBlocked(t *testing.T) {
	cl, _ := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2})
	s0 := NewScheduler(cl.PE(0), cl.Engine, cl.Cost)
	s1 := NewScheduler(cl.PE(1), cl.Engine, cl.Cost)
	var resumedOn *Scheduler
	th := NewThread(0, func(th *Thread) {
		th.Suspend()
		resumedOn = th.Scheduler()
	})
	s0.Adopt(th)
	cl.Engine.Drain()
	// Migrate the blocked thread.
	s0.Remove(th)
	if th.Scheduler() != nil {
		t.Fatal("removed thread still bound")
	}
	s1.AdoptBlocked(th)
	if th.State() != Blocked {
		t.Fatal("AdoptBlocked changed state")
	}
	cl.Engine.After(time.Microsecond, func() { th.Wake() })
	cl.Engine.Drain()
	if resumedOn != s1 {
		t.Fatal("thread did not resume on the destination scheduler")
	}
	if len(s0.Threads()) != 0 || len(s1.Threads()) != 1 {
		t.Fatalf("thread lists: %d and %d", len(s0.Threads()), len(s1.Threads()))
	}
}

func TestWakeOfRunnableThreadPanics(t *testing.T) {
	s, e := testSched(t)
	th := NewThread(0, func(th *Thread) { th.Yield() })
	s.Adopt(th)
	defer func() {
		if recover() == nil {
			t.Fatal("waking a ready thread must panic")
		}
	}()
	_ = e
	th.Wake() // state Ready (adopted, not yet run)
}

func TestSchedulerClockFollowsEngine(t *testing.T) {
	s, e := testSched(t)
	// An event far in the future adopts a thread; the scheduler pass
	// must not run the thread at an earlier local time.
	e.At(time.Second, func() {
		th := NewThread(0, func(th *Thread) {
			if th.Now() < time.Second {
				t.Errorf("thread ran at %v, before adoption time", th.Now())
			}
		})
		s.Adopt(th)
	})
	e.Drain()
}

func TestManyThreadsFIFO(t *testing.T) {
	s, e := testSched(t)
	const n = 100
	var order []int
	for i := 0; i < n; i++ {
		i := i
		s.Adopt(NewThread(i, func(th *Thread) { order = append(order, i) }))
	}
	e.Drain()
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("adoption order not FIFO at %d: %v", i, order[:i+1])
		}
	}
	if s.RunnableCount() != 0 {
		t.Fatal("runnable queue not drained")
	}
}

func TestKillBlockedThreadUnwindsBody(t *testing.T) {
	s, e := testSched(t)
	deferred := false
	th := NewThread(4, func(th *Thread) {
		defer func() { deferred = true }()
		th.Suspend()
		t.Error("killed thread resumed its body")
	})
	s.Adopt(th)
	e.Drain()
	if th.State() != Blocked {
		t.Fatalf("state %v, want blocked", th.State())
	}
	th.Kill("node 0 failed")
	if !deferred {
		t.Error("kill did not run the body's deferred calls")
	}
	if th.State() != Done || s.DoneCount() != 1 {
		t.Fatalf("state=%v done=%d", th.State(), s.DoneCount())
	}
	if th.Err == nil || th.Err.Error() != "ult: thread 4 killed: node 0 failed" {
		t.Fatalf("err %v", th.Err)
	}
	th.Kill("again") // killing a finished thread is a no-op
	if th.Err.Error() != "ult: thread 4 killed: node 0 failed" {
		t.Fatalf("second kill rewrote err: %v", th.Err)
	}
}

func TestKillReadyThread(t *testing.T) {
	s, e := testSched(t)
	resumed := false
	th := NewThread(0, func(th *Thread) {
		th.Suspend()
		resumed = true
	})
	s.Adopt(th)
	e.Drain()
	// Wake queues a pass; the kill lands before it runs.
	e.After(time.Microsecond, func() {
		th.Wake()
		if th.State() != Ready {
			t.Errorf("state %v after wake, want ready", th.State())
		}
		th.Kill("evicted")
	})
	e.Drain()
	if resumed {
		t.Fatal("killed ready thread ran its body")
	}
	if th.State() != Done || th.Err == nil || s.DoneCount() != 1 {
		t.Fatalf("state=%v err=%v done=%d", th.State(), th.Err, s.DoneCount())
	}
	if s.RunnableCount() != 0 {
		t.Fatalf("%d threads left runnable", s.RunnableCount())
	}
}

func TestKillNeverStartedThread(t *testing.T) {
	s, e := testSched(t)
	ran := false
	adopted := NewThread(1, func(*Thread) { ran = true })
	s.Adopt(adopted) // Ready, never run
	adopted.Kill("early")
	loose := NewThread(2, func(*Thread) { ran = true }) // Created, no scheduler
	loose.Kill("early")
	e.Drain()
	if ran {
		t.Fatal("a thread killed before its first run executed its body")
	}
	for _, th := range []*Thread{adopted, loose} {
		if th.State() != Done || th.Err == nil || th.next != nil {
			t.Errorf("thread %d: state=%v err=%v coroutine=%v", th.ID, th.State(), th.Err, th.next != nil)
		}
	}
	if s.DoneCount() != 1 {
		t.Fatalf("done count %d, want 1", s.DoneCount())
	}
}

func TestKillRunningThreadPanics(t *testing.T) {
	s, e := testSched(t)
	var got any
	th := NewThread(0, func(th *Thread) {
		defer func() { got = recover() }()
		th.Kill("self")
	})
	s.Adopt(th)
	e.Drain()
	if got == nil {
		t.Fatal("killing a running thread must panic")
	}
	if th.State() != Done || th.Err != nil {
		t.Fatalf("state=%v err=%v", th.State(), th.Err)
	}
}

func TestPanicAfterParkCapturedAsErr(t *testing.T) {
	s, e := testSched(t)
	th := NewThread(5, func(th *Thread) {
		th.Suspend()
		panic("late boom")
	})
	s.Adopt(th)
	e.Drain()
	e.After(time.Microsecond, func() { th.Wake() })
	e.Drain()
	if th.State() != Done || s.DoneCount() != 1 {
		t.Fatalf("state=%v done=%d", th.State(), s.DoneCount())
	}
	if th.Err == nil || th.Err.Error() != "ult: thread 5 panicked: late boom" {
		t.Fatalf("err %v", th.Err)
	}
}

// TestYieldFIFOAcrossLongPass runs several threads that yield many
// times inside one scheduler pass: the queue never drains, so only
// compaction keeps its backing array bounded.
func TestYieldFIFOAcrossLongPass(t *testing.T) {
	s, e := testSched(t)
	const threads, yields = 5, 40
	var order []int
	maxCap := 0
	for i := 0; i < threads; i++ {
		i := i
		s.Adopt(NewThread(i, func(th *Thread) {
			for k := 0; k < yields; k++ {
				order = append(order, i)
				th.Yield()
				maxCap = max(maxCap, cap(s.ready))
			}
		}))
	}
	e.Drain()
	if len(order) != threads*yields {
		t.Fatalf("%d quanta, want %d", len(order), threads*yields)
	}
	for k, id := range order {
		if id != k%threads {
			t.Fatalf("quantum %d ran thread %d, want %d (round robin)", k, id, k%threads)
		}
	}
	if s.DoneCount() != threads || s.RunnableCount() != 0 || s.head != 0 {
		t.Fatalf("done=%d runnable=%d head=%d", s.DoneCount(), s.RunnableCount(), s.head)
	}
	if maxCap > 4*threads {
		t.Fatalf("ready queue grew to capacity %d over %d yields of %d threads", maxCap, threads*yields, threads)
	}
}

// TestYieldRoundTripAllocs pins the handoff's performance contract:
// once a thread's coroutine exists, a wake, a yield back through the
// ready queue and a suspend allocate nothing.
func TestYieldRoundTripAllocs(t *testing.T) {
	s, e := testSched(t)
	laps := 0
	th := NewThread(0, func(th *Thread) {
		for {
			th.Suspend()
			th.Yield()
			laps++
		}
	})
	s.Adopt(th)
	e.Drain()
	defer th.Release()
	for i := 0; i < 8; i++ { // warm up the queue and event pool
		th.Wake()
		e.Drain()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		th.Wake()
		e.Drain()
	})
	if allocs != 0 {
		t.Errorf("steady-state yield round trip allocates %.1f objects per run, want 0", allocs)
	}
	if laps < 1000 {
		t.Fatalf("%d laps ran", laps)
	}
}

func TestReleaseLeavesStateAndEndsGoroutine(t *testing.T) {
	s, e := testSched(t)
	base := runtime.NumGoroutine()
	deferred := 0
	var ths []*Thread
	for i := 0; i < 8; i++ {
		th := NewThread(i, func(th *Thread) {
			defer func() { deferred++ }()
			th.Suspend()
			t.Error("released thread resumed its body")
		})
		ths = append(ths, th)
		s.Adopt(th)
	}
	never := NewThread(8, func(*Thread) { t.Error("never-started thread ran") })
	e.Drain()
	if got := runtime.NumGoroutine(); got < base+8 {
		t.Fatalf("%d goroutines with 8 parked threads, baseline %d", got, base)
	}
	for _, th := range append(ths, never) {
		th.Release()
	}
	if deferred != 8 {
		t.Errorf("%d bodies ran their deferred calls, want 8", deferred)
	}
	for _, th := range ths {
		if th.State() != Blocked || th.Err != nil {
			t.Errorf("thread %d: state=%v err=%v after release", th.ID, th.State(), th.Err)
		}
	}
	if s.DoneCount() != 0 {
		t.Errorf("release counted %d threads done", s.DoneCount())
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after release, baseline %d", got, base)
	}
}

func TestReleaseRunningThreadPanics(t *testing.T) {
	s, e := testSched(t)
	var got any
	th := NewThread(0, func(th *Thread) {
		defer func() { got = recover() }()
		th.Release()
	})
	s.Adopt(th)
	e.Drain()
	if got == nil {
		t.Fatal("releasing a running thread must panic")
	}
}
