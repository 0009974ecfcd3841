package mem

import "provirt/internal/obs"

// Host-side snapshot instruments (package obs). Serialization is the
// memory subsystem's hot path — every migration and checkpoint pays
// it — and the incremental design's whole value is the gap between
// full and delta bytes, which these counters make observable across a
// run. Package-level with a nil default: an un-instrumented Serialize
// pays one pointer comparison, the trace.Tracer discipline.
type obsMetrics struct {
	// snapshots counts Serialize calls; fullBytes/deltaBytes accumulate
	// each snapshot's logical payload vs what actually changed since
	// the previous snapshot (the incremental win is their ratio).
	snapshots  *obs.Counter
	fullBytes  *obs.Counter
	deltaBytes *obs.Counter
	// blocksCopied counts blocks that wrote at least one payload page
	// since their previous snapshot — pages the snapshot freezes for the
	// first time; blocksReused counts the rest, whose every page was
	// already shared with an earlier snapshot (ballast included).
	blocksReused *obs.Counter
	blocksCopied *obs.Counter
	// arenaBytes accumulates the bytes of those newly frozen pages: the
	// copy-on-write page copies and first-touch pages that writes since
	// the previous snapshot made, the host copy work snapshots cost.
	arenaBytes *obs.Counter
}

var metrics obsMetrics

// EnableObs registers the snapshot instruments in r and turns them on
// for every heap in the process; EnableObs(nil) restores the no-op
// state. Call it only while no simulation is running.
func EnableObs(r *obs.Registry) {
	if r == nil {
		metrics = obsMetrics{}
		return
	}
	metrics = obsMetrics{
		snapshots: r.Counter("mem_snapshots_total",
			"heap serializations (migrations + checkpoints)"),
		fullBytes: r.Counter("mem_snapshot_full_bytes_total",
			"logical payload bytes across all snapshots"),
		deltaBytes: r.Counter("mem_snapshot_delta_bytes_total",
			"payload bytes that changed since each previous snapshot"),
		blocksReused: r.Counter("mem_snapshot_blocks_reused_total",
			"blocks whose pages were all shared with an earlier snapshot"),
		blocksCopied: r.Counter("mem_snapshot_blocks_copied_total",
			"blocks with payload pages written since their previous snapshot"),
		arenaBytes: r.Counter("mem_snapshot_arena_bytes_total",
			"bytes of payload pages written since their previous snapshot"),
	}
}
