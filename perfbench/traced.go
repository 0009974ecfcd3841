package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/harness"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/obs"
	"provirt/internal/scenario"
	"provirt/internal/serve"
	"provirt/internal/workloads/adcirc"
)

// span is one timed call the benchmark made into a layer. Parent 0
// marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. The nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, began, ended time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: began.Sub(t.t0).Nanoseconds(), End: ended.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// seconds sums the durations of every span with the given name.
func seconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// --- obs registry readout ---

// bucket is one cumulative histogram bucket; le is +Inf for the last.
type bucket struct{ le, cum float64 }

// registryValues renders the registry in Prometheus text format, the
// obs package's public readout, and parses it back: plain samples by
// name and histograms by base name.
func registryValues(r *obs.Registry) (map[string]float64, map[string][]bucket) {
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	vals := map[string]float64{}
	hists := map[string][]bucket{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if base, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			bound := math.Inf(1)
			if le = strings.TrimSuffix(le, `"}`); le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			hists[base] = append(hists[base], bucket{bound, v})
			continue
		}
		vals[name] = v
	}
	return vals, hists
}

// histQuantile estimates the q-quantile of a histogram by linear
// interpolation inside the bucket that holds it; the open top bucket
// reports its lower bound.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		if !math.IsInf(b.le, 1) {
			lo = b.le
		}
		prev = b.cum
	}
	return lo
}

// --- event counting (count mode) ---

// countEvents turns the engine's instruments on and returns a function
// that reads sim_events_dispatched_total and turns them off again.
func countEvents() func() uint64 {
	reg := obs.NewRegistry()
	harness.EnableObs(reg)
	return func() uint64 {
		vals, _ := registryValues(reg)
		harness.EnableObs(nil)
		return uint64(vals["sim_events_dispatched_total"])
	}
}

// --- traced mode ---

// runtimeSample reads the Go runtime's allocation and GC totals.
func runtimeSample() (allocBytes, gcCycles, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// tracedRun holds the process-global instruments of one traced pass:
// the obs registry, enabled before the workload starts and read after
// it ends, and the CPU profile.
type tracedRun struct {
	reg      *obs.Registry
	progress *obs.Progress
	prof     bytes.Buffer
	rt0      [3]float64
	tr       *tracer
}

func startTraced() *tracedRun {
	t := &tracedRun{reg: obs.NewRegistry(), tr: newTracer()}
	t.progress = harness.EnableObs(t.reg)
	serve.EnableObs(t.reg)
	t.rt0[0], t.rt0[1], t.rt0[2] = runtimeSample()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		panic(err) // only fails when a profile is already running
	}
	return t
}

// selfModules are the modules whose CPU-profile self time is reported.
var selfModules = []string{"core", "elf", "loader", "mem", "ult", "sim", "ampi",
	"lb", "ft", "machine", "resultstore", "serve"}

// finish stops the profile, reads every instrument, and fills the
// per-layer metrics that come from the profile, the obs registry and
// the runtime.
func (t *tracedRun) finish(res *passResult) {
	pprof.StopCPUProfile()
	alloc, cycles, gcCPU := runtimeSample()
	vals, hists := registryValues(t.reg)
	harness.EnableObs(nil)
	serve.EnableObs(nil)

	modules, err := moduleSeconds(t.prof.Bytes())
	if err != nil {
		res.fail("%v", err)
	}
	res.Modules = modules
	res.Spans = t.tr.spans
	l := map[string]float64{}
	res.Layers = l
	for _, m := range selfModules {
		l[m+".self_s"] = modules[m]
	}
	l["runtime.other_s"] = modules[otherModule]
	l["runtime.alloc_mib"] = (alloc - t.rt0[0]) / (1 << 20)
	l["runtime.gc_cycles"] = cycles - t.rt0[1]
	l["runtime.gc_cpu_s"] = gcCPU - t.rt0[2]

	l["sweep.point_ms.p50"] = histQuantile(hists["sweep_point_wall_us"], 0.5) / 1e3
	l["sweep.point_ms.max"] = histQuantile(hists["sweep_point_wall_us"], 1) / 1e3

	l["mem.snapshots"] = vals["mem_snapshots_total"]
	l["mem.snapshot_full_mib"] = vals["mem_snapshot_full_bytes_total"] / (1 << 20)
	l["mem.snapshot_delta_mib"] = vals["mem_snapshot_delta_bytes_total"] / (1 << 20)
	l["mem.arena_mib"] = vals["mem_snapshot_arena_bytes_total"] / (1 << 20)
	l["mem.block_reuse_ratio"] = ratio(vals["mem_snapshot_blocks_reused_total"],
		vals["mem_snapshot_blocks_reused_total"]+vals["mem_snapshot_blocks_copied_total"])

	l["sim.events"] = vals["sim_events_dispatched_total"]
	l["sim.queue_high_water"] = vals["sim_queue_depth_high_water"]
	l["sim.node_reuse_ratio"] = ratio(vals["sim_event_node_reuse_total"],
		vals["sim_event_node_reuse_total"]+vals["sim_event_node_allocs_total"])
	l["sim.windows"] = vals["sim_windows_total"]
	l["sim.window_events.p50"] = histQuantile(hists["sim_window_events"], 0.5)
	l["sim.domain_idle_windows"] = vals["sim_domain_idle_windows_total"]
	l["sim.cross_domain_events"] = vals["sim_cross_domain_events_total"]
	res.Events = uint64(vals["sim_events_dispatched_total"])

	l["ampi.unexpected"] = vals["ampi_unexpected_total"]
	l["ampi.spills"] = vals["ampi_matchqueue_spills_total"]

	l["ft.recoveries"] = vals["ft_recoveries_total"]
	l["ft.restored_mib"] = vals["ft_restored_bytes_total"] / (1 << 20)
	l["ft.drain_checkpoints"] = vals["ft_drain_checkpoints_total"]
	l["ft.epochs"] = vals["ft_membership_epochs_total"]

	l["resultstore.evictions"] = vals["resultstore_evictions_total"]
	l["resultstore.corrupt_skipped"] = vals["resultstore_corrupt_skipped_total"]
	hits, misses := vals["serve_cache_hits_total"], vals["serve_cache_misses_total"]
	l["serve.hit_ratio"] = ratio(hits, hits+misses)
	l["serve.points_executed"] = vals["serve_points_executed_total"]
	l["serve.dedup_joins"] = vals["serve_dedup_joins_total"]
	l["serve.queue_high_water"] = vals["serve_queue_depth_highwater"]
	l["serve.point_errors"] = vals["serve_point_errors_total"]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedBatchPass runs one batch pass with every instrument on, then
// replays table2 and scale through their public layer entry points so
// spans can split the work by layer.
func tracedBatchPass(workload string, exps []harness.Experiment, d *digestFile) passResult {
	t := startTraced()
	ro := batchOpts(workload)
	ro.Progress = t.progress
	root := t.tr.begin("workload."+workload, 0)
	results := map[string]harness.Result{}
	res := batchPass(ro, workload, exps, d, func(e harness.Experiment, began, ended time.Time, r harness.Result) {
		t.tr.add("harness."+e.Name, root, began, ended)
		results[e.Name] = r
	})
	t.tr.end(root)
	t.finish(&res)
	l := res.Layers

	for _, name := range batchWorkloads["paper-figs"] {
		l["harness."+name+".wall_s"] = seconds(res.Spans, "harness."+name)
	}
	if rows, ok := results["fig6"].Rows.([]harness.Fig6Row); ok {
		for _, r := range rows {
			l["ult.switches"] += float64(r.Switches)
		}
		l["ult.ns_per_switch"] = ratio(l["harness.fig6.wall_s"]*1e9, l["ult.switches"])
	}
	if rows, ok := results["fig8"].Rows.([]harness.Fig8Row); ok {
		// Each fig8 row migrates one TLSglobals rank and one PIEglobals rank.
		for _, r := range rows {
			l["ampi.migrations"] += 2
			l["ampi.migrated_mib"] += float64(r.TLSBytes+r.PIEBytes) / (1 << 20)
		}
	}
	if rows, ok := results["table2"].Rows.([]harness.AdcircRow); ok {
		replayTable2(t.tr, rows, &res)
	}
	if rows, ok := results["scale"].Rows.([]harness.ScaleRow); ok {
		replayScale(t.tr, rows, &res)
	}
	res.Spans = t.tr.spans
	return res
}

// replayTable2 rebuilds each (cores, ratio) point of the table2 sweep as
// a scenario.Spec and times Spec.Build and World.Run apart. Each
// replayed execution time must equal its Fig. 9 cell, so the split
// measures the same work the workload did.
func replayTable2(tr *tracer, rows []harness.AdcircRow, res *passResult) {
	l := res.Layers
	root := tr.begin("replay.table2", 0)
	defer tr.end(root)
	var ranks int
	var switches uint64
	var migrations int
	var moved uint64
	for _, row := range rows {
		for _, p := range row.Points {
			acfg := adcirc.DefaultConfig()
			var bal lb.Strategy
			if p.LB {
				bal = lb.GreedyRefineLB{}
			} else {
				acfg.LBPeriod = 0
			}
			sp := scenario.Spec{
				Machine:  machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: p.Cores},
				VPs:      p.Cores * p.Ratio,
				Method:   core.KindPIEglobals,
				Program:  adcirc.New(acfg, nil),
				Balancer: bal,
			}
			res.Attempted++
			point := tr.begin(fmt.Sprintf("replay.point cores=%d ratio=%d", p.Cores, p.Ratio), root)
			b0 := time.Now()
			built, err := sp.Build()
			tr.add("scenario.build", point, b0, time.Now())
			if err != nil {
				tr.end(point)
				res.fail("replay cores=%d ratio=%d: %v", p.Cores, p.Ratio, err)
				continue
			}
			r0 := time.Now()
			err = built.World.Run()
			tr.add("scenario.run", point, r0, time.Now())
			tr.end(point)
			if err != nil {
				res.fail("replay cores=%d ratio=%d: %v", p.Cores, p.Ratio, err)
				continue
			}
			st := built.World.Stats()
			if st.Execution != p.Time {
				res.fail("replay cores=%d ratio=%d: execution %v, Fig. 9 cell %v", p.Cores, p.Ratio, st.Execution, p.Time)
			}
			ranks += sp.VPs
			switches += st.Switches
			migrations += st.Migrations
			moved += st.MigratedBytes
		}
	}
	spans := tr.spans
	l["scenario.build_s"] = seconds(spans, "scenario.build")
	l["scenario.run_s"] = seconds(spans, "scenario.run")
	l["core.setup_us_per_rank"] = ratio(l["scenario.build_s"]*1e6, float64(ranks))
	l["ult.switches"] = float64(switches)
	l["ampi.migrations"] = float64(migrations)
	l["ampi.migrated_mib"] = float64(moved) / (1 << 20)
}

// scaleImage mirrors the scale experiment's program image.
func scaleImage() *elf.Image {
	return elf.NewBuilder("scaleapp").
		TaggedGlobal("iter", 0).
		TaggedGlobal("local_norm", 0).
		Const("mesh_dim", 64).
		Func("main", 4096).
		Func("compute", 16<<10).
		CodeBulk(4 << 20).
		DataBulk(256 << 10).
		RODataBulk(192 << 10).
		MustBuild()
}

// replayScale rebuilds the scale experiment through the public
// FlatWorld calls and times each; the replayed phase times and event
// counts must equal the experiment's rows.
func replayScale(tr *tracer, rows []harness.ScaleRow, res *passResult) {
	l := res.Layers
	if len(rows) != 2 {
		res.fail("scale: %d rows, want 2", len(rows))
		return
	}
	ar, storm := rows[0], rows[1]
	l["ampi.migrations"] = float64(storm.Migrations)
	l["ampi.migrated_mib"] = float64(storm.MigratedBytes) / (1 << 20)
	l["ampi.host_bytes_per_rank"] = float64(storm.HostPeakBytesPerRank)

	root := tr.begin("replay.scale", 0)
	defer tr.end(root)
	res.Attempted++
	t0 := time.Now()
	w, err := ampi.NewFlatWorld(ampi.FlatConfig{
		Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 8},
		VPs:        ar.VPs,
		Image:      scaleImage(),
		SimWorkers: batchOpts("scale").SimWorkers,
	})
	tr.add("ampi.flat_build", root, t0, time.Now())
	if err != nil {
		res.fail("scale replay: %v", err)
		return
	}
	t1 := time.Now()
	arDone, err := w.Allreduce(8)
	tr.add("ampi.flat_allreduce", root, t1, time.Now())
	if err != nil {
		res.fail("scale replay: %v", err)
		return
	}
	arEvents := w.EventsFired()
	t2 := time.Now()
	stormDone, err := w.MigrationStorm(8)
	tr.add("ampi.flat_storm", root, t2, time.Now())
	if err != nil {
		res.fail("scale replay: %v", err)
		return
	}
	if arDone != ar.Time || arEvents != ar.Events || stormDone != storm.Time || w.EventsFired() != storm.Events {
		res.fail("scale replay diverged: allreduce %v/%d storm %v/%d, rows %v/%d %v/%d",
			arDone, arEvents, stormDone, w.EventsFired(), ar.Time, ar.Events, storm.Time, storm.Events)
	}
	spans := tr.spans
	l["ampi.flat_build_s"] = seconds(spans, "ampi.flat_build")
	l["ampi.flat_allreduce_s"] = seconds(spans, "ampi.flat_allreduce")
	l["ampi.flat_storm_s"] = seconds(spans, "ampi.flat_storm")
}
