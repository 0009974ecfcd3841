// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload, times it from outside through the program's public
// entry points, checks every output against digests recorded when the
// benchmark was defined, and prints one JSON result as its last line.
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload BENCHMARK.json gates, one after
// the other, each printing its summary and result line.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	table2      registry experiment table2 at its defaults, serial
//	paper-figs  every other paper experiment, in registry order, serial
//	scale       registry experiment scale (10^6 VPs) at SimWorkers 2
//	serve-mix   a closed loop of 2 clients POSTing seeded sweeps to a
//	            2-worker serve.Server over loopback HTTP; not gated by
//	            BENCHMARK.json (see servemix.go)
//
// --trace 0 measures the end-to-end metrics with every instrument off.
// --trace 1 makes three untraced passes and one traced pass and
// reports the per-layer metrics: spans around the benchmark's calls
// into each layer, the obs counters, and a CPU profile bucketed by
// module. The tracing overhead is the traced pass's wall time minus
// the untraced median.
//
// Everything a run leaves behind goes under .bench_build/perfbench/ in
// the checkout: the record (machine fingerprint, metrics with sample
// counts) and, for traced runs, the span log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir is where runs keep their scratch files and records, relative
// to the checkout root.
const workDir = ".bench_build/perfbench"

// gatedWorkloads are the workloads BENCHMARK.json lists, in the order
// --workload all runs them.
var gatedWorkloads = []string{"table2", "paper-figs", "scale"}

// setupProbes is how many set-up-only children an untraced run starts
// on top of the one set-up every pass pays, so setup_s is a median of
// many samples even when a run fits few passes.
const setupProbes = 9

// tracedReferencePasses is how many untraced passes a traced run makes;
// their median wall time is what the tracing overhead is measured
// against.
const tracedReferencePasses = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	child    string
	record   string
}

// passOutcome is one pass as the parent saw it.
type passOutcome struct {
	setupS float64
	use    usage
	res    passResult
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: table2, paper-figs, scale, serve-mix, or all (the gated ones in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (chooses serve-mix's pool and request order)")
	flag.IntVar(&o.seconds, "seconds", 20, "how long the timed passes of one run last")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under "+workDir)
	flag.StringVar(&o.child, "child", "", "internal: run as a pass child in this mode")
	flag.StringVar(&o.record, "record", "", "record output digests at this commit into this file and exit")
	flag.Parse()

	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.child != "" {
		return childMain(o)
	}
	if o.record != "" {
		return recordDigests(o.root, o.record)
	}
	if o.workload == "all" {
		for _, w := range gatedWorkloads {
			one := *o
			one.workload = w
			if err := runWorkload(&one); err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
		}
		return nil
	}
	return runWorkload(o)
}

// runWorkload runs one workload and prints its summary and result line.
func runWorkload(o *options) error {
	if _, ok := batchWorkloads[o.workload]; !ok && o.workload != "serve-mix" {
		return fmt.Errorf("unknown workload %q (want table2, paper-figs, scale or serve-mix)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := loadDigests(); err != nil {
		return err
	}
	if err := cleanScratch(o); err != nil {
		return err
	}
	var rec *record
	var err error
	if o.trace == 1 {
		rec, err = tracedRunMain(o)
	} else {
		rec, err = timedRun(o)
	}
	if cerr := cleanScratch(o); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := rec.write(o); err != nil {
		return err
	}
	if rec.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	return nil
}

// runPass runs one pass of the workload in a fresh child.
func runPass(o *options, mode string, s *serveState) (passOutcome, []reqResult, error) {
	if s != nil {
		out, reqs, err := servePass(o, mode, s)
		if err == nil {
			err = cleanScratch(o)
		}
		return out, reqs, err
	}
	var out passOutcome
	c, err := spawn(o, mode)
	if err != nil {
		return out, nil, err
	}
	if _, err := c.ready(); err != nil {
		c.kill()
		return out, nil, err
	}
	out.setupS = time.Since(c.start).Seconds()
	if mode != modeProbe {
		if _, err := fmt.Fprintln(c.in, "go"); err != nil {
			c.kill()
			return out, nil, err
		}
		if out.res, err = c.result(); err != nil {
			c.kill()
			return out, nil, err
		}
	}
	out.use, err = c.finish()
	return out, nil, err
}

// serveState is what the serve-mix passes of one run share: the row
// checker, the number of schedules drawn so far, and the tracer of the
// traced pass.
type serveState struct {
	rows   *rowChecker
	passes int
	tr     *tracer
}

func newServeState(o *options) (*serveState, error) {
	if o.workload != "serve-mix" {
		return nil, nil
	}
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	return &serveState{rows: newRowChecker(d)}, nil
}

// timedRun measures the end-to-end metrics: set-up probes, one pass
// that counts engine events, then untraced passes for --seconds.
func timedRun(o *options) (*record, error) {
	s, err := newServeState(o)
	if err != nil {
		return nil, err
	}
	rec := newRecord(o)
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		p, _, err := runPass(o, modeProbe, s)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setupS)
	}
	cnt, _, err := runPass(o, modeCount, s)
	if err != nil {
		return nil, err
	}
	rec.add(cnt.res)

	var walls, rss, pointRates []float64
	// expOps[i] is experiment i's latency in every pass (batch);
	// reqP50 and reqTail are each pass's request median and tail
	// (serve-mix).
	var expOps [][]float64
	var reqP50, reqTail []float64
	var ops int
	tail := 100.0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(walls) == 0 || time.Now().Before(deadline) {
		p, reqs, err := runPass(o, modePass, s)
		if err != nil {
			return nil, err
		}
		rec.add(p.res)
		setups = append(setups, p.setupS)
		walls = append(walls, p.res.WallS)
		rss = append(rss, p.use.RSSMiB)
		rec.Passes = append(rec.Passes, passSample{p.res.WallS, p.setupS, p.use})
		if s == nil {
			for i, ms := range p.res.OpsMS {
				if i == len(expOps) {
					expOps = append(expOps, nil)
				}
				expOps[i] = append(expOps[i], ms)
			}
			ops += len(p.res.OpsMS)
			pointRates = append(pointRates, float64(len(p.res.OpsMS))/p.res.WallS)
			continue
		}
		points, lat := 0, []float64(nil)
		for _, r := range reqs {
			points += r.points
			if r.err == nil {
				lat = append(lat, r.ms)
			}
		}
		pointRates = append(pointRates, float64(points)/p.res.WallS)
		if len(lat) > 0 {
			ops += len(lat)
			tail = tailPercentile(len(lat))
			reqP50 = append(reqP50, median(lat))
			reqTail = append(reqTail, percentile(lat, tail))
		}
	}

	// A batch pass is the same experiments every time, so each
	// experiment is summarised by its median over passes and the
	// percentiles are taken over experiments: noise in one pass cannot
	// move the median from one experiment to another. serve-mix
	// requests are summarised per pass, then medianed over passes.
	var opP50, opTail float64
	if s == nil {
		perExp := make([]float64, len(expOps))
		for i, xs := range expOps {
			perExp[i] = median(xs)
		}
		tail = tailPercentile(len(perExp))
		opP50, opTail = median(perExp), percentile(perExp, tail)
	} else {
		opP50, opTail = median(reqP50), median(reqTail)
	}
	wall := median(walls)
	rec.set("wall_s", wall, len(walls))
	rec.set("setup_s", median(setups), len(setups))
	// Per-pass peaks are quantised by when the collector runs (table2's
	// fall on about 1.6, 1.7 and 1.9 GiB), so the mean, not the median,
	// is what moves smoothly with the program's memory use.
	rec.set("peak_rss_mib", mean(rss), len(rss))
	rec.set("events_per_s", float64(cnt.res.Events)/wall, len(walls))
	rec.set("op_p50_ms", opP50, ops)
	rec.set("op_tail_ms", opTail, ops)
	rec.set("points_per_s", median(pointRates), len(pointRates))
	rec.Notes["op_tail_percentile"] = tail
	rec.Notes["events_per_pass"] = float64(cnt.res.Events)
	return rec, nil
}

// tracedRunMain makes tracedReferencePasses untraced passes and one
// traced pass, and reports the per-layer metrics.
func tracedRunMain(o *options) (*record, error) {
	s, err := newServeState(o)
	if err != nil {
		return nil, err
	}
	rec := newRecord(o)
	var plain []float64
	for i := 0; i < tracedReferencePasses; i++ {
		p, _, err := runPass(o, modePass, s)
		if err != nil {
			return nil, err
		}
		rec.add(p.res)
		plain = append(plain, p.res.WallS)
	}

	var tr *tracer
	if s != nil {
		tr = newTracer()
		s.tr = tr
	}
	traced, reqs, err := runPass(o, modeTraced, s)
	if err != nil {
		return nil, err
	}
	rec.add(traced.res)
	layers := traced.res.Layers
	if layers == nil {
		layers = map[string]float64{}
	}
	spans := traced.res.Spans
	if s != nil {
		var hit, miss []float64
		for _, r := range reqs {
			switch {
			case r.err != nil:
			case r.hit:
				hit = append(hit, r.ms)
			default:
				miss = append(miss, r.ms)
			}
		}
		layers["serve.hit_req_ms.p50"] = median(hit)
		layers["serve.miss_req_ms.p50"] = median(miss)
		spans = tr.spans
	}
	layers["bench.trace_overhead_s"] = traced.res.WallS - median(plain)
	for _, m := range layerMetrics(o.workload) {
		rec.set(m.Name, layers[m.Name], 1)
	}
	rec.Modules = traced.res.Modules
	if err := writeJSON(o, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed), spans); err != nil {
		return nil, err
	}
	return rec, nil
}

// cleanScratch deletes the result stores serve-mix passes leave behind
// and syncs, so the file system's deferred work for the deletion and
// for the pass's writes (such as discards on a file system mounted with
// -o discard) is done between timed passes rather than during them.
func cleanScratch(o *options) error {
	if err := os.RemoveAll(filepath.Join(o.root, workDir, "tmp")); err != nil {
		return err
	}
	syscall.Sync()
	return nil
}

// writeJSON writes v under the work directory.
func writeJSON(o *options, name string, v any) error {
	dir := filepath.Join(o.root, workDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// --- the record ---

// passSample is one timed pass in a record.
type passSample struct {
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	usage
}

// measured is one reported metric with its sample count.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is a run's result: the header that identifies the machine and
// inputs, the metrics, and the operation accounting.
type record struct {
	Header    fingerprint         `json:"header"`
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Trace     int                 `json:"trace"`
	Metrics   map[string]measured `json:"metrics"`
	Notes     map[string]float64  `json:"notes,omitempty"`
	Modules   map[string]float64  `json:"module_cpu_s,omitempty"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Failures  []string            `json:"failures,omitempty"`
	// Passes lists every timed pass, so a record shows the samples
	// behind each median.
	Passes []passSample `json:"passes,omitempty"`
	order  []string
	defs   map[string]metricDef
}

func newRecord(o *options) *record {
	defs := map[string]metricDef{}
	for _, m := range append(layerMetrics("serve-mix"), endToEnd...) {
		defs[m.Name] = m
	}
	return &record{Header: machineFingerprint(), Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, Metrics: map[string]measured{},
		Notes: map[string]float64{}, defs: defs}
}

func (r *record) add(p passResult) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	for _, f := range p.Failures {
		if len(r.Failures) < maxFailureMessages {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *record) set(name string, v float64, n int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = measured{Value: v, Unit: r.defs[name].Unit, Samples: n}
}

// write prints the human summary, saves the record, and prints the
// result line the benchmark contract reads: the last line of stdout.
func (r *record) write(o *options) error {
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	w := bufio.NewWriter(os.Stdout)
	h := r.Header
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# machine: %s, nproc=%d, GOMAXPROCS=%d, %s, revision %s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Revision)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "# %-28s %14.6g %-6s n=%-6d %s\n", name, m.Value, m.Unit, m.Samples, r.defs[name].Moves)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "# %-28s %14.6g\n", k, r.Notes[k])
	}
	fmt.Fprintf(w, "# %-28s %14.6g        (%d of %d operations failed)\n", "fail_ratio", r.FailRatio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# failure: %s\n", strings.ReplaceAll(f, "\n", " "))
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := writeJSON(o, fmt.Sprintf("record-%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace), r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return w.Flush()
}
