package mem

import (
	"sync"
	"testing"
)

// samePage reports whether two payloads hold the same physical page pg
// (shared, not copied).
func samePage(a, b *Payload, pg int) bool {
	x, y := a.pages[pg].w, b.pages[pg].w
	return len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
}

// TestSerializeIncrementalSharing pins the dirty-block contract: a
// snapshot copies no payload — its pages are the live heap's, frozen —
// a clean block keeps sharing the previous snapshot's page, a written
// block gets a private copy of only the page it wrote, and DeltaBytes
// reports exactly the touched blocks' sizes.
func TestSerializeIncrementalSharing(t *testing.T) {
	h := NewHeap(0)
	a, _ := h.Alloc(64, "a")
	b, _ := h.Alloc(128, "b")
	ballast, _ := h.AllocBallast(4096, "ballast")
	a.Set(0, 1)
	b.Set(0, 2)

	s1 := h.Serialize()
	if s1.DeltaBytes() != s1.Bytes() {
		t.Fatalf("first snapshot delta %d, want full %d", s1.DeltaBytes(), s1.Bytes())
	}
	if !samePage(s1.Blocks[0].Data, a.Data, 0) {
		t.Fatal("serialize copied a page instead of freezing it")
	}

	s2 := h.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("unchanged heap delta %d, want 0", s2.DeltaBytes())
	}
	if !samePage(s2.Blocks[0].Data, s1.Blocks[0].Data, 0) ||
		!samePage(s2.Blocks[1].Data, s1.Blocks[1].Data, 0) {
		t.Fatal("clean blocks were re-copied instead of shared")
	}

	a.Set(0, 42)
	s3 := h.Serialize()
	if s3.DeltaBytes() != a.Size {
		t.Fatalf("delta %d after writing a, want %d", s3.DeltaBytes(), a.Size)
	}
	if samePage(s3.Blocks[0].Data, s2.Blocks[0].Data, 0) {
		t.Fatal("dirty block shared the stale frozen page")
	}
	if !samePage(s3.Blocks[1].Data, s2.Blocks[1].Data, 0) {
		t.Fatal("clean block was re-copied")
	}
	// Snapshot isolation: the earlier snapshots still see the old value.
	if s1.Blocks[0].At(0) != 1 || s2.Blocks[0].At(0) != 1 || s3.Blocks[0].At(0) != 42 {
		t.Fatalf("snapshot isolation broken: %d / %d / %d",
			s1.Blocks[0].At(0), s2.Blocks[0].At(0), s3.Blocks[0].At(0))
	}
	if ballast.Data != nil || s3.Blocks[2].Data != nil {
		t.Fatal("ballast block grew a payload")
	}
}

// TestFreeNeverRevivesStalePayload: recycling a freed block's struct
// must never revive the freed generation's payload, in the live heap or
// in the next snapshot, and the recycled block counts as dirty.
func TestFreeNeverRevivesStalePayload(t *testing.T) {
	h := NewHeap(0)
	a, _ := h.Alloc(64, "a")
	a.Set(0, 7)
	h.Serialize()
	if err := h.Free(a.Addr); err != nil {
		t.Fatal(err)
	}
	b, _ := h.Alloc(64, "b") // recycles a's struct and address
	if b.Addr != a.Addr {
		t.Fatalf("expected address reuse, got %#x vs %#x", b.Addr, a.Addr)
	}
	if b.At(0) != 0 {
		t.Fatalf("recycled block reads %d, want a zeroed payload", b.At(0))
	}
	b.Data.Set(1, 9) // a raw write: no Touch, yet the block is new
	s := h.Serialize()
	last := s.Blocks[len(s.Blocks)-1]
	if last.At(0) != 0 || last.At(1) != 9 {
		t.Fatal("snapshot revived the freed block's stale payload")
	}
	if s.DeltaBytes() != b.Size {
		t.Fatalf("recycled block delta %d, want %d", s.DeltaBytes(), b.Size)
	}
}

// TestAllocSplitsOversizedFreeBlock pins the slack-waste fix: a large
// freed span satisfying a small request is split, and the remainder
// stays reusable at the expected address.
func TestAllocSplitsOversizedFreeBlock(t *testing.T) {
	h := NewHeap(0)
	big, _ := h.Alloc(1<<20, "big")
	base := big.Addr
	if err := h.Free(base); err != nil {
		t.Fatal(err)
	}
	small, _ := h.Alloc(8, "small")
	if small.Addr != base || small.Size != 8 {
		t.Fatalf("small block [%#x,+%d), want head of the freed span [%#x,+8)", small.Addr, small.Size, base)
	}
	rest, _ := h.Alloc((1<<20)-8, "rest")
	if rest.Addr != base+8 {
		t.Fatalf("remainder reused at %#x, want %#x", rest.Addr, base+8)
	}
	if h.LiveBytes() != 1<<20 {
		t.Fatalf("live bytes %d, want %d", h.LiveBytes(), 1<<20)
	}
	// Nothing above should have advanced the bump pointer.
	next, _ := h.Alloc(16, "next")
	if next.Addr != base+1<<20 {
		t.Fatalf("bump pointer moved during free-list reuse: %#x", next.Addr)
	}
}

// TestSnapshotRoundTripUnderChurn drives alloc/free/realloc cycles,
// serializes, and checks the restored heap preserves addresses, labels,
// shared flags, payloads, AND allocator behaviour: the original and the
// restored heap must hand out identical addresses for any subsequent
// identical allocation sequence (the Isomalloc invariant across
// migration).
func TestSnapshotRoundTripUnderChurn(t *testing.T) {
	h := NewHeap(4)
	var hold []*Block
	for i := 0; i < 40; i++ {
		b, err := h.Alloc(uint64(16+(i%7)*24), "churn")
		if err != nil {
			t.Fatal(err)
		}
		b.Set(0, uint64(i))
		hold = append(hold, b)
		if i%3 == 2 { // free every third, creating reusable spans
			victim := hold[i/3]
			if err := h.Free(victim.Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared, _ := h.AllocBallast(1<<16, "code")
	h.MarkShared(shared)

	snap := h.Serialize()
	h2 := Restore(snap)

	if h2.LiveBlocks() != h.LiveBlocks() {
		t.Fatalf("restored %d blocks, want %d", h2.LiveBlocks(), h.LiveBlocks())
	}
	if h2.LiveBytes() != h.LiveBytes() || h2.ResidentBytes() != h.ResidentBytes() {
		t.Fatalf("restored accounting %d/%d, want %d/%d",
			h2.LiveBytes(), h2.ResidentBytes(), h.LiveBytes(), h.ResidentBytes())
	}
	for _, b := range h.Blocks() {
		nb := h2.Lookup(b.Addr)
		if nb == nil {
			t.Fatalf("block %#x lost", b.Addr)
		}
		if nb.Size != b.Size || nb.Label != b.Label || nb.Shared != b.Shared {
			t.Fatalf("block %#x metadata diverged: %+v vs %+v", b.Addr, nb, b)
		}
		if b.Data != nil && nb.At(0) != b.At(0) {
			t.Fatalf("block %#x payload diverged", b.Addr)
		}
	}
	// Free-list behaviour survives the round trip: identical subsequent
	// allocation sequences produce identical addresses.
	for i := 0; i < 20; i++ {
		size := uint64(8 + (i%5)*40)
		x1, err1 := h.Alloc(size, "post")
		x2, err2 := h2.Alloc(size, "post")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if x1.Addr != x2.Addr {
			t.Fatalf("post-restore alloc %d diverged: %#x vs %#x", i, x1.Addr, x2.Addr)
		}
	}
}

// TestRestoreSeedsIncrementalCache: a restored heap's own first
// serialize is already incremental — nothing changed since the
// snapshot it was built from.
func TestRestoreSeedsIncrementalCache(t *testing.T) {
	h := NewHeap(5)
	a, _ := h.Alloc(256, "a")
	a.Set(3, 11)
	snap := h.Serialize()
	h2 := Restore(snap)
	s2 := h2.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("restored heap's first snapshot delta %d, want 0", s2.DeltaBytes())
	}
	// And it shares the original snapshot's pages rather than copying.
	if !samePage(s2.Blocks[0].Data, snap.Blocks[0].Data, 0) {
		t.Fatal("restored heap re-copied a clean block")
	}
	// Writes on the restored heap must not leak into either snapshot.
	a2 := h2.Lookup(a.Addr)
	a2.Set(3, 99)
	if snap.Blocks[0].At(3) != 11 || s2.Blocks[0].At(3) != 11 {
		t.Fatal("live write leaked into an immutable snapshot")
	}
}

// TestRestoreSharesSnapshotPages: restoring copies nothing — every
// restored block shares the snapshot's pages, whether they were frozen
// by this snapshot or by an earlier, kept one — yet writes on the
// restored heap, or on a sibling restored from the same snapshot, never
// reach either snapshot, and a later snapshot of the restored heap sees
// the writes and stays immutable after them.
func TestRestoreSharesSnapshotPages(t *testing.T) {
	h := NewHeap(6)
	a, _ := h.Alloc(64, "a")
	b, _ := h.Alloc(64, "b")
	a.Set(0, 1)
	b.Set(0, 2)

	ck := h.Serialize() // kept checkpoint
	b.Set(0, 22)
	mig := h.Serialize() // a clean (page shared with ck), b dirty

	h2, sib := Restore(mig), Restore(mig)
	a2, b2 := h2.Lookup(a.Addr), h2.Lookup(b.Addr)
	if !samePage(a2.Data, ck.Blocks[0].Data, 0) || !samePage(b2.Data, mig.Blocks[1].Data, 0) {
		t.Fatal("restore copied a page instead of sharing it")
	}
	a2.Set(0, 100)
	b2.Set(0, 200)
	if ck.Blocks[0].At(0) != 1 || ck.Blocks[1].At(0) != 2 {
		t.Fatalf("checkpoint corrupted: %d/%d", ck.Blocks[0].At(0), ck.Blocks[1].At(0))
	}
	if mig.Blocks[0].At(0) != 1 || mig.Blocks[1].At(0) != 22 {
		t.Fatalf("migration snapshot corrupted: %d/%d", mig.Blocks[0].At(0), mig.Blocks[1].At(0))
	}
	if sib.Lookup(a.Addr).At(0) != 1 || sib.Lookup(b.Addr).At(0) != 22 {
		t.Fatal("a write leaked into a sibling restored from the same snapshot")
	}
	s := h2.Serialize()
	if s.Blocks[1].At(0) != 200 {
		t.Fatal("post-restore serialize missed the restored block's write")
	}
	b2.Set(0, 300)
	if s.Blocks[1].At(0) != 200 {
		t.Fatal("a write after serialize reached the snapshot")
	}
}

// TestMigrationLoopStaysIncremental drives the full migration lifecycle
// — serialize, restore, mutate, repeat — and checks that after the
// first full-payload round, every later round's wire delta is only the
// touched bytes, and that the host copies only the written page: the
// cold block's pages are shared through every round.
func TestMigrationLoopStaysIncremental(t *testing.T) {
	h := NewHeap(8)
	hot, _ := h.Alloc(64, "hot")
	cold, _ := h.Alloc(1<<16, "cold")
	hot.Set(0, 1)
	for pg := 0; pg < (1<<16)/PageSize; pg++ {
		cold.Set(pg*PageWords, 100+uint64(pg))
	}
	hotAddr, coldAddr := hot.Addr, cold.Addr
	coldPages := cold.Data

	heap := h
	for round := 0; round < 4; round++ {
		s := heap.Serialize()
		if round == 0 {
			if s.DeltaBytes() != s.Bytes() {
				t.Fatalf("round 0 delta %d, want full %d", s.DeltaBytes(), s.Bytes())
			}
		} else if s.DeltaBytes() != 64 {
			t.Fatalf("round %d delta %d, want only the 64 touched bytes", round, s.DeltaBytes())
		}
		heap = Restore(s)
		hb := heap.Lookup(hotAddr)
		hb.Set(0, hb.At(0)+1)
	}
	if got := heap.Lookup(hotAddr).At(0); got != 5 {
		t.Fatalf("hot cell %d after 4 rounds, want 5", got)
	}
	cb := heap.Lookup(coldAddr)
	for pg := 0; pg < (1<<16)/PageSize; pg++ {
		if got := cb.At(pg * PageWords); got != 100+uint64(pg) {
			t.Fatalf("cold page %d corrupted: %d", pg, got)
		}
		if !samePage(cb.Data, coldPages, pg) {
			t.Fatalf("cold page %d was copied by the migration loop", pg)
		}
	}
}

// TestAccountingCountersMatchRescan cross-checks the maintained
// live/resident counters against a full rescan through every mutation
// path: alloc, ballast, split reuse, free, shared marking.
func TestAccountingCountersMatchRescan(t *testing.T) {
	h := NewHeap(7)
	check := func(stage string) {
		var live, resident uint64
		for _, b := range h.Blocks() {
			live += b.Size
			if !b.Shared {
				resident += b.Size
			}
		}
		if h.LiveBytes() != live || h.ResidentBytes() != resident {
			t.Fatalf("%s: counters %d/%d, rescan %d/%d", stage,
				h.LiveBytes(), h.ResidentBytes(), live, resident)
		}
	}
	a, _ := h.Alloc(100, "a")
	check("alloc")
	code, _ := h.AllocBallast(1<<14, "code")
	check("ballast")
	h.MarkShared(code)
	check("markshared")
	h.MarkShared(code) // idempotent
	check("markshared-again")
	h.Free(a.Addr)
	check("free")
	h.Alloc(24, "split") // splits a's 104-byte span
	check("split")
}

// TestConcurrentRestoresOfOneSnapshot: a snapshot is only read when
// restored, so goroutines may restore and write through the same
// snapshot at once (sweep workers restarting from one checkpoint)
// without racing each other or changing what it holds.
func TestConcurrentRestoresOfOneSnapshot(t *testing.T) {
	h := NewHeap(2)
	a, _ := h.Alloc(3*PageSize, "a")
	for pg := 0; pg < 3; pg++ {
		a.Set(pg*PageWords, uint64(pg+1))
	}
	snap := h.Serialize()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := Restore(snap)
			blk := r.Lookup(a.Addr)
			for pg := 0; pg < 3; pg++ {
				blk.Set(pg*PageWords, uint64(100*g+pg))
			}
			if s := r.Serialize(); s.Blocks[0].At(2*PageWords) != uint64(100*g+2) {
				t.Errorf("goroutine %d: its snapshot lost its own write", g)
			}
		}(g)
	}
	wg.Wait()
	for pg := 0; pg < 3; pg++ {
		if got := snap.Blocks[0].At(pg * PageWords); got != uint64(pg+1) {
			t.Fatalf("shared snapshot page %d reads %d after concurrent restores", pg, got)
		}
	}
}
