package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every timed pass runs in a fresh child process, so a pass's set-up
// time and peak resident memory are its own and no pass inherits heap
// or caches from the one before. The protocol is line-based over the
// child's stdin/stdout:
//
//	child  -> "ready [addr]"   set-up done; the workload can take input
//	parent -> "go"             run one pass (batch workloads only)
//	child  -> {passResult}     one JSON line, then the child exits
//
// Closing the child's stdin instead of sending "go" ends it: a probe
// child exits at once, a server child shuts down and reports.

// Child modes.
const (
	modeProbe  = "probe"  // set up, report ready, exit
	modePass   = "pass"   // one untraced pass
	modeCount  = "count"  // one pass with the engine's event counter on
	modeTraced = "traced" // one pass with obs, CPU profile and spans
)

// passResult is what one child pass reports.
type passResult struct {
	// WallS is the pass's host time: the sum of its experiment calls
	// (batch) or the server's lifetime under load (serve-mix, filled in
	// by the parent).
	WallS float64 `json:"wall_s"`
	// OpsMS is each operation's latency (batch: one experiment call).
	OpsMS     []float64 `json:"ops_ms,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Failures holds the first few failure messages.
	Failures []string `json:"failures,omitempty"`
	// Events is sim_events_dispatched_total (count and traced modes).
	Events uint64 `json:"events,omitempty"`
	// Layers, Spans and Modules are the traced mode's per-layer
	// metrics, span log and CPU seconds per module.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
	Modules map[string]float64 `json:"modules,omitempty"`
}

const maxFailureMessages = 5

func (r *passResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureMessages {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// child is the parent's handle on one running child process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	start time.Time
}

// spawn starts a child for the workload in the given mode. The clock
// for set-up time starts before the fork.
func spawn(o *options, mode string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s child: %w", mode, err)
	}
	return c, nil
}

// line reads the child's next stdout line.
func (c *child) line() (string, error) {
	s, err := c.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("child output: %w", err)
	}
	return strings.TrimSuffix(s, "\n"), nil
}

// ready waits for the ready line and returns its argument (the server
// address for serve-mix).
func (c *child) ready() (string, error) {
	s, err := c.line()
	if err != nil {
		return "", err
	}
	arg, ok := strings.CutPrefix(s, "ready")
	if !ok {
		return "", fmt.Errorf("child said %q, want ready", s)
	}
	return strings.TrimSpace(arg), nil
}

// result reads the child's JSON result line.
func (c *child) result() (passResult, error) {
	var r passResult
	s, err := c.line()
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal([]byte(s), &r); err != nil {
		return r, fmt.Errorf("child result: %w", err)
	}
	return r, nil
}

// usage is what a finished child consumed.
type usage struct {
	RSSMiB float64 `json:"peak_rss_mib"`
	UserS  float64 `json:"user_s"`
	SysS   float64 `json:"sys_s"`
}

// finish closes the child's stdin, waits for it to exit, and returns
// its peak resident set and CPU time.
func (c *child) finish() (usage, error) {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return usage{}, fmt.Errorf("child: %w", err)
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, errors.New("child: no resource usage")
	}
	ps := c.cmd.ProcessState
	return usage{
		RSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		UserS:  ps.UserTime().Seconds(),
		SysS:   ps.SystemTime().Seconds(),
	}, nil
}

// kill stops a child on an error path and reaps it.
func (c *child) kill() {
	c.in.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// childMain is the child side: set up, say ready, then run what the
// parent asks for.
func childMain(o *options) error {
	if _, ok := batchWorkloads[o.workload]; ok {
		return batchChild(o)
	}
	return serveChild(o)
}

// emit writes the result line.
func emit(r passResult) error {
	return json.NewEncoder(os.Stdout).Encode(r)
}
