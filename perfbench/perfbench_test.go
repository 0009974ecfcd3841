package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"provirt/internal/harness"
	"provirt/internal/scenario"
	"provirt/internal/trace"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {5000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 100}, {1, 100},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p < 100 && tc.n-nearestRank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", tc.n, p, minBeyond)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestServeScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a, err := serveSchedule(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveSchedule(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.reqs) != serveRequests {
		t.Fatalf("schedule has %d requests, want %d", len(a.reqs), serveRequests)
	}
	if !slices.Equal(a.reqs, b.reqs) || !slices.EqualFunc(a.sweeps, b.sweeps, bytes.Equal) {
		t.Fatal("two schedules of seed 7, pass 1 differ")
	}
	c, err := serveSchedule(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slices.EqualFunc(a.sweeps, c.sweeps, bytes.Equal) {
		t.Fatal("seeds 7 and 8 produced the same sweeps")
	}

	// Every pass requests every pool point, so every pass executes the
	// same work in its own order.
	want := map[string]bool{}
	for _, sp := range servePool(7) {
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		want[h] = true
	}
	for pass := 0; pass < 3; pass++ {
		s, err := serveSchedule(7, pass)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, k := range s.reqs {
			var req struct{ Points []scenario.Spec }
			if err := json.Unmarshal(s.sweeps[k], &req); err != nil {
				t.Fatal(err)
			}
			for _, sp := range req.Points {
				h, err := sp.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if !want[h] {
					t.Fatalf("pass %d requests a point outside the pool", pass)
				}
				got[h] = true
			}
		}
		if len(got) != len(want) {
			t.Errorf("pass %d requests %d of %d pool points", pass, len(got), len(want))
		}
	}
}

func TestEveryPoolPointHasARecordedDigest(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 42} {
		for _, sp := range servePool(seed) {
			h, err := sp.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Rows[h]; !ok {
				t.Errorf("seed %d: pool point %s/%s/%d has no recorded row digest", seed, sp.Workload, sp.Method, sp.VPs)
			}
		}
	}
	for wl, exps := range batchWorkloads {
		for _, e := range exps {
			if _, ok := d.Batch[wl][e]; !ok {
				t.Errorf("%s/%s has no recorded tables digest", wl, e)
			}
		}
	}
}

func TestAttributionChargesRuntimeFramesToTheCaller(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "provirt/internal/core.(*dup).copy", "provirt/internal/harness.AdcircScaling"}, "core"},
		{[]string{"runtime.gopark", "runtime.chanrecv1", "provirt/internal/ult.(*Thread).Switch", "provirt/internal/ampi.(*Rank).Recv"}, "ult"},
		{[]string{"runtime.memclrNoHeapPointers", "provirt/internal/mem.(*Heap).Serialize"}, "mem"},
		{[]string{"provirt/internal/harness/sweep.Runner.Run.func1"}, "harness/sweep"},
		{[]string{"provirt/internal/workloads/adcirc.New.func1"}, "workloads/adcirc"},
		{[]string{"sync.(*Mutex).Lock", "provirt/perfbench.post"}, benchModule},
		{[]string{"crypto/sha256.block", "main.tablesDigest", "main.batchPass"}, benchModule},
		{[]string{"runtime.memmove", "main.(*tracer).begin", "main.servePass.func1"}, benchModule},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, otherModule},
		{nil, otherModule},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestModuleSecondsDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profile busy:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	mods, err := moduleSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mods[benchModule] < 0.05 {
		t.Fatalf("bench module charged %.3fs of a 0.4s busy loop (all: %v)", mods[benchModule], mods)
	}
}

func TestDigestCheckCatchesAFlippedByte(t *testing.T) {
	tbl := trace.NewTable("t", "Cores", "Time")
	tbl.AddRow("4", "12.5ms")
	res := harness.Result{Tables: []*trace.Table{tbl}}
	d := &digestFile{Batch: map[string]map[string]string{"w": {"e": tablesDigest(res)}}}
	if err := checkTables(d, "w", "e", res); err != nil {
		t.Fatalf("unchanged table failed its check: %v", err)
	}
	flipped := trace.NewTable("t", "Cores", "Time")
	flipped.AddRow("4", "12.6ms")
	if err := checkTables(d, "w", "e", harness.Result{Tables: []*trace.Table{flipped}}); err == nil {
		t.Fatal("a table with one flipped byte passed its check")
	}

	row := []byte(`{"workload":"hello","finish_ns":1234}`)
	rows := &rowChecker{recorded: map[string]string{"h": rowDigest(row)}, seen: map[string]string{}}
	if err := rows.check("h", row); err != nil {
		t.Fatalf("unchanged row failed its check: %v", err)
	}
	bad := bytes.Replace(row, []byte("1234"), []byte("1235"), 1)
	if err := rows.check("h", bad); err == nil {
		t.Fatal("a row with one flipped byte passed the recorded-digest check")
	}
	// A point with no recorded digest must serve the same bytes every time.
	if err := rows.check("unrecorded", row); err != nil {
		t.Fatal(err)
	}
	if err := rows.check("unrecorded", bad); err == nil {
		t.Fatal("an unrecorded point changed its row bytes within a run and passed")
	}
}

func TestBenchmarkJSONMatchesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, gatedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, --workload all runs %v", names, gatedWorkloads)
	}
	if !equalDefs(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the metrics the benchmark reports")
	}
	if !equalDefs(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metrics the benchmark reports")
	}
}

// equalDefs compares the fields BENCHMARK.json carries.
func equalDefs(a, b []metricDef) bool {
	return slices.EqualFunc(a, b, func(x, y metricDef) bool {
		return x.Name == y.Name && x.Unit == y.Unit && x.Better == y.Better
	})
}
