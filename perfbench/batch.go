package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"provirt/internal/harness"
)

// batchWorkloads maps each batch workload to the registry experiments
// one pass runs, in registry order. paper-figs is every paper
// experiment except the two that have workloads of their own.
var batchWorkloads = map[string][]string{
	"table2":     {"table2"},
	"paper-figs": {"tables", "fig5", "fig5scale", "fig6", "fig7", "fig8", "icache", "memory", "ftsweep", "elastic"},
	"scale":      {"scale"},
}

// batchOpts are the options every batch pass runs with: one
// simulation at a time, and scale's flat world sharded over the two
// host CPUs.
func batchOpts(workload string) harness.RunOpts {
	ro := harness.RunOpts{Opts: harness.Opts{Parallelism: 1}}
	if workload == "scale" {
		ro.SimWorkers = 2
	}
	return ro
}

// tablesDigest is the SHA-256 of an experiment's rendered tables, the
// bytes its output check compares.
func tablesDigest(res harness.Result) string {
	h := sha256.New()
	for _, t := range res.Tables {
		h.Write([]byte(t.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkTables compares an experiment's rendered tables with the
// digest recorded for it.
func checkTables(d *digestFile, workload, exp string, res harness.Result) error {
	want, ok := d.Batch[workload][exp]
	if !ok {
		return fmt.Errorf("%s: no recorded digest", exp)
	}
	if got := tablesDigest(res); got != want {
		return fmt.Errorf("%s: tables digest %s, recorded %s", exp, got[:12], want[:12])
	}
	return nil
}

func batchChild(o *options) error {
	var exps []harness.Experiment
	for _, name := range batchWorkloads[o.workload] {
		e, ok := harness.LookupExperiment(name)
		if !ok {
			return fmt.Errorf("experiment %q not in the registry", name)
		}
		exps = append(exps, e)
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	fmt.Println("ready")

	cmd, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || strings.TrimSpace(cmd) != "go" {
		return nil // probe, or the parent gave up
	}
	var res passResult
	switch o.child {
	case modeTraced:
		res = tracedBatchPass(o.workload, exps, digests)
	case modeCount:
		stop := countEvents()
		res = batchPass(batchOpts(o.workload), o.workload, exps, digests, nil)
		res.Events = stop()
	default:
		res = batchPass(batchOpts(o.workload), o.workload, exps, digests, nil)
	}
	return emit(res)
}

// batchPass runs every experiment once, timing each call and checking
// its tables. observe, if set, sees each call's span and result.
func batchPass(ro harness.RunOpts, workload string, exps []harness.Experiment, d *digestFile,
	observe func(e harness.Experiment, began, ended time.Time, res harness.Result)) passResult {
	var r passResult
	for _, e := range exps {
		r.Attempted++
		began := time.Now()
		res, err := e.Run(ro)
		ended := time.Now()
		dt := ended.Sub(began)
		r.WallS += dt.Seconds()
		r.OpsMS = append(r.OpsMS, float64(dt.Nanoseconds())/1e6)
		if err != nil {
			r.fail("%s: %v", e.Name, err)
			continue
		}
		if err := checkTables(d, workload, e.Name, res); err != nil {
			r.fail("%v", err)
		}
		if observe != nil {
			observe(e, began, ended, res)
		}
	}
	return r
}
