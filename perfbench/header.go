package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and build a record was measured
// on, so records from different machines are never compared as if
// they were one.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Revision is vcs.revision, suffixed "+dirty" for a modified tree,
	// or "unknown" when the build carries no VCS stamp.
	Revision string `json:"revision"`
}

func machineFingerprint() fingerprint {
	f := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
		if rev != "" {
			f.Revision = rev
			if dirty == "true" {
				f.Revision += "+dirty"
			}
		}
	}
	return f
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
