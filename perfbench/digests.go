package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"provirt/internal/harness"
	"provirt/internal/resultstore"
	"provirt/internal/serve"
)

// digestFile holds the output digests recorded at the commit that
// defined the benchmark. Virtual-time results are the program's
// behavioural contract, so a change that moves one fails every
// operation that produces it.
type digestFile struct {
	// Batch maps workload -> experiment -> SHA-256 of its rendered
	// tables.
	Batch map[string]map[string]string `json:"batch"`
	// Rows maps a point's Spec hash -> SHA-256 of its served row bytes,
	// for every point of serveUniverse.
	Rows map[string]string `json:"rows"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

// recordDigests runs every batch experiment and serves every point of
// the serve-mix universe once, and writes their digests to path.
// Run it only at a commit whose outputs are known to be right.
func recordDigests(root, path string) error {
	d := digestFile{Batch: map[string]map[string]string{}}
	for wl, names := range batchWorkloads {
		d.Batch[wl] = map[string]string{}
		for _, name := range names {
			e, _ := harness.LookupExperiment(name)
			res, err := e.Run(batchOpts(wl))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			d.Batch[wl][name] = tablesDigest(res)
		}
	}
	rows, err := recordRows(root)
	if err != nil {
		return err
	}
	d.Rows = rows
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordRows serves every universe point through an in-process server
// and returns each row's digest. A checker with nothing recorded
// remembers the first digest it sees per point hash.
func recordRows(root string) (map[string]string, error) {
	tmp := filepath.Join(root, workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "record-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := resultstore.Open(dir, resultstore.CodeVersion(), 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: serve.New(store, resultstore.CodeVersion(), serveWorkers).Handler(nil)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	checker := &rowChecker{seen: map[string]string{}}
	client := &http.Client{Timeout: time.Minute}
	url := "http://" + ln.Addr().String() + "/v1/runs"
	universe := serveUniverse()
	const chunk = 30
	for i := 0; i < len(universe); i += chunk {
		body, err := sweepBody(universe[i:min(i+chunk, len(universe))])
		if err != nil {
			return nil, err
		}
		if r := post(client, url, body, checker); r.err != nil {
			return nil, r.err
		}
	}
	if len(checker.seen) != len(universe) {
		return nil, fmt.Errorf("recorded %d rows for %d universe points", len(checker.seen), len(universe))
	}
	client.CloseIdleConnections()
	return checker.seen, nil
}
