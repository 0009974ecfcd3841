package mem

import (
	"testing"

	"provirt/internal/obs"
)

// Snapshot instruments: the second serialization of an untouched heap
// must show full bytes without delta bytes — the incremental win the
// counters exist to expose — and a block that wrote a page since its
// previous snapshot must count as copied, with exactly that page's
// bytes as arena bytes.
func TestSnapshotObsCounts(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	h := NewHeap(0)
	a, _ := h.Alloc(256, "a")
	h.Alloc(512, "b")
	a.Set(0, 1)

	s1 := h.Serialize()
	if got := metrics.snapshots.Value(); got != 1 {
		t.Fatalf("mem_snapshots_total = %d, want 1", got)
	}
	if metrics.fullBytes.Value() != s1.Bytes() {
		t.Fatalf("full bytes = %d, want %d", metrics.fullBytes.Value(), s1.Bytes())
	}
	if metrics.deltaBytes.Value() != s1.DeltaBytes() || s1.DeltaBytes() != s1.Bytes() {
		t.Fatalf("delta bytes = %d, snapshot delta %d", metrics.deltaBytes.Value(), s1.DeltaBytes())
	}
	// Only a wrote a page; b's pages were never materialized.
	if c, u := metrics.blocksCopied.Value(), metrics.blocksReused.Value(); c != 1 || u != 1 {
		t.Fatalf("first snapshot copied/reused %d/%d blocks, want 1/1", c, u)
	}
	if got := metrics.arenaBytes.Value(); got != a.Size {
		t.Fatalf("arena bytes = %d, want a's one %d-byte page", got, a.Size)
	}

	// Untouched heap: every page is already shared, delta stays 0.
	s2 := h.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("untouched heap delta = %d", s2.DeltaBytes())
	}
	if got := metrics.deltaBytes.Value(); got != s1.DeltaBytes() {
		t.Fatalf("delta counter moved on clean snapshot: %d", got)
	}
	if got := metrics.blocksReused.Value(); got != 3 {
		t.Fatalf("clean snapshot reused %d blocks in total, want 3", got)
	}
	if metrics.blocksCopied.Value() != 1 || metrics.arenaBytes.Value() != a.Size {
		t.Fatal("clean snapshot counted copies")
	}

	// Touching a block without writing it moves the delta, not the
	// arena; writing it moves both.
	a.Touch()
	if s3 := h.Serialize(); s3.DeltaBytes() != a.Size {
		t.Fatalf("touched-block delta = %d, want %d", s3.DeltaBytes(), a.Size)
	}
	if metrics.blocksCopied.Value() != 1 {
		t.Fatal("a touch without a write counted as a copy")
	}
	a.Set(1, 2)
	if s4 := h.Serialize(); s4.DeltaBytes() != a.Size {
		t.Fatalf("dirty-block delta = %d, want %d", s4.DeltaBytes(), a.Size)
	}
	if got := metrics.blocksCopied.Value(); got != 2 {
		t.Fatalf("dirty snapshot copied %d blocks in total, want 2", got)
	}
	if got := metrics.arenaBytes.Value(); got != 2*a.Size {
		t.Fatalf("arena bytes = %d, want %d", got, 2*a.Size)
	}
}
