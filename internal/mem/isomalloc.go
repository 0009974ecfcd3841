package mem

import (
	"fmt"
	"sort"
)

// Block is one live Isomalloc allocation. Payload cells are 8-byte words;
// allocations that only matter for their footprint (user heap ballast)
// may carry a nil payload and record only their size.
type Block struct {
	Addr  uint64
	Size  uint64
	Label string
	// Data is the allocation's payload, one word per 8 bytes in
	// copy-on-write pages, or nil for footprint-only ballast. Pointer
	// values stored here survive migration verbatim because the block's
	// address is identical in every process.
	Data *Payload
	// Shared marks a block backed by a shared read-only mapping (one
	// physical copy mapped from a single descriptor, per the paper's
	// §6 future-work plan). Shared blocks occupy virtual address space
	// but contribute neither resident memory nor migration payload:
	// the destination re-establishes the mapping instead of receiving
	// bytes.
	Shared bool
	// SharedBytes is the partially-shared span of an otherwise private
	// block: the leading bytes backed by a shared read-only mapping
	// (copy-on-write image data under PIEglobals code sharing). Like a
	// fully Shared block, these bytes contribute neither resident memory
	// nor migration payload; the writable remainder behaves normally.
	// Ignored when Shared is set (the whole block is already shared).
	SharedBytes uint64
	// gen is the block's generation stamp: it advances whenever the
	// payload may have changed (see Touch). snapGen is gen as of the
	// heap's last Serialize; the block is clean — zero delta bytes —
	// while the two match.
	gen, snapGen uint64
}

// End returns one past the last byte of the block.
func (b *Block) End() uint64 { return b.Addr + b.Size }

// sharedSpan returns how many of the block's bytes are backed by shared
// mappings: all of them for a Shared block, SharedBytes otherwise.
func (b *Block) sharedSpan() uint64 {
	if b.Shared {
		return b.Size
	}
	return b.SharedBytes
}

// residentSpan returns the block's private (resident) byte count.
func (b *Block) residentSpan() uint64 { return b.Size - b.sharedSpan() }

// Touch marks the block's payload as modified since the last snapshot,
// so the next one counts the block in its delta. Snapshot contents never
// depend on it — pages are copy-on-write — only the delta accounting
// does. The runtime's write paths (privatized stores, charge-only access
// batches, Set) call it; code that writes Data directly between two
// Serialize calls on the same heap calls it by hand.
func (b *Block) Touch() { b.gen++ }

// At returns payload word i.
func (b *Block) At(i int) uint64 { return b.Data.At(i) }

// Set stores v in payload word i and touches the block.
func (b *Block) Set(i int, v uint64) {
	b.Data.Set(i, v)
	b.Touch()
}

// Heap is a per-rank Isomalloc heap: a bump allocator with free-list
// reuse inside the rank's reserved virtual address range. All state
// needed to reconstruct the heap in another process is serializable.
type Heap struct {
	vp    int
	base  uint64
	limit uint64
	brk   uint64
	// blocks maps a block's base address to the block; index holds the
	// same blocks sorted by address for O(log n) containment lookups and
	// scan-free ordered iteration.
	blocks map[uint64]*Block
	index  []*Block
	free   []*Block // freed spans, address-ordered for deterministic reuse
	// live/resident are running byte counters maintained by
	// Alloc/Free/MarkShared so the accessors never rescan.
	live     uint64
	resident uint64
}

// NewHeap returns an empty heap for virtual rank vp. vp must be within
// the arena's capacity (MaxRanks).
func NewHeap(vp int) *Heap {
	if vp < 0 || vp >= MaxRanks {
		panic(fmt.Sprintf("isomalloc: rank %d outside arena capacity %d", vp, MaxRanks))
	}
	base := RankRangeBase(vp)
	return &Heap{
		vp:     vp,
		base:   base,
		limit:  base + IsomallocRangeSize,
		brk:    base,
		blocks: make(map[uint64]*Block),
	}
}

// VP returns the owning virtual rank.
func (h *Heap) VP() int { return h.vp }

// Base returns the heap's reserved-range base address.
func (h *Heap) Base() uint64 { return h.base }

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Alloc allocates size bytes and returns the block. The payload is
// zero-initialized.
func (h *Heap) Alloc(size uint64, label string) (*Block, error) {
	b, err := h.allocRaw(size, label)
	if err != nil {
		return nil, err
	}
	b.Data = NewPayload(int(b.Size / 8))
	return b, nil
}

// AllocFrom allocates a block holding a copy of src. The block shares
// src's pages until either side writes one: only written pages are ever
// copied.
func (h *Heap) AllocFrom(src *Payload, label string) (*Block, error) {
	b, err := h.allocRaw(uint64(src.Len())*8, label)
	if err != nil {
		return nil, err
	}
	b.Data = src.Clone()
	return b, nil
}

// AllocBallast allocates size bytes of footprint-only memory: the block
// contributes to the heap's serialized size but carries no payload
// words. Workloads use it to model large user heaps cheaply.
func (h *Heap) AllocBallast(size uint64, label string) (*Block, error) {
	return h.allocRaw(size, label)
}

// indexInsert places b into the sorted address index. Bump allocations
// always land past every live block, so the common case appends.
func (h *Heap) indexInsert(b *Block) {
	n := len(h.index)
	if n == 0 || h.index[n-1].Addr < b.Addr {
		h.index = append(h.index, b)
		return
	}
	i := sort.Search(n, func(i int) bool { return h.index[i].Addr > b.Addr })
	h.index = append(h.index, nil)
	copy(h.index[i+1:], h.index[i:])
	h.index[i] = b
}

// indexRemove drops the block at addr from the sorted address index.
func (h *Heap) indexRemove(addr uint64) {
	i := sort.Search(len(h.index), func(i int) bool { return h.index[i].Addr >= addr })
	copy(h.index[i:], h.index[i+1:])
	h.index = h.index[:len(h.index)-1]
}

func (h *Heap) allocRaw(size uint64, label string) (*Block, error) {
	if size == 0 {
		return nil, fmt.Errorf("isomalloc: zero-size allocation")
	}
	size = align8(size)
	// First-fit reuse from the address-ordered free list. An oversized
	// span is split: the block takes its head, the tail stays free at
	// the same list position (addresses stay sorted).
	for i, f := range h.free {
		if f.Size < size {
			continue
		}
		b := f
		b.Label = label
		b.Shared = false
		b.SharedBytes = 0
		b.gen++ // new contents: dirty for the next snapshot
		if f.Size > size {
			h.free[i] = &Block{Addr: f.Addr + size, Size: f.Size - size}
			b.Size = size
		} else {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.blocks[b.Addr] = b
		h.indexInsert(b)
		h.live += size
		h.resident += size
		return b, nil
	}
	if h.brk+size > h.limit {
		return nil, fmt.Errorf("isomalloc: rank %d range exhausted (%d bytes requested)", h.vp, size)
	}
	b := &Block{Addr: h.brk, Size: size, Label: label, gen: 1} // never snapshotted: dirty
	h.brk += size
	h.blocks[b.Addr] = b
	h.indexInsert(b)
	h.live += size
	h.resident += size
	return b, nil
}

// Free releases the block at addr for reuse.
func (h *Heap) Free(addr uint64) error {
	b, ok := h.blocks[addr]
	if !ok {
		return fmt.Errorf("isomalloc: free of unallocated address %#x", addr)
	}
	delete(h.blocks, addr)
	h.indexRemove(addr)
	h.live -= b.Size
	h.resident -= b.residentSpan()
	b.Data = nil
	b.Label = ""
	b.Shared = false
	b.SharedBytes = 0
	b.gen++
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].Addr > b.Addr })
	h.free = append(h.free, nil)
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = b
	return nil
}

// MarkShared flips a live block onto shared read-only backing, moving
// its bytes out of the rank's resident footprint. Use this rather than
// writing Block.Shared directly so the heap's running counters stay
// consistent.
func (h *Heap) MarkShared(b *Block) {
	if b.Shared {
		return
	}
	h.resident -= b.residentSpan()
	b.Shared = true
}

// MarkSharedBytes marks the leading n bytes of a live block as backed by
// a shared read-only mapping, leaving the remainder private — the
// copy-on-write shape of a PIEglobals data segment whose .rodata pages
// are shared across ranks. n is clamped to the block size; marking never
// shrinks an existing shared span, and a fully Shared block is left
// alone.
func (h *Heap) MarkSharedBytes(b *Block, n uint64) {
	if b.Shared {
		return
	}
	if n > b.Size {
		n = b.Size
	}
	if n <= b.SharedBytes {
		return
	}
	h.resident -= n - b.SharedBytes
	b.SharedBytes = n
}

// Lookup returns the live block containing addr, or nil.
func (h *Heap) Lookup(addr uint64) *Block {
	i := sort.Search(len(h.index), func(i int) bool { return h.index[i].End() > addr })
	if i < len(h.index) && h.index[i].Addr <= addr {
		return h.index[i]
	}
	return nil
}

// LiveBytes reports the total size of live allocations.
func (h *Heap) LiveBytes() uint64 { return h.live }

// ResidentBytes reports live allocation bytes excluding spans backed by
// shared read-only mappings (whole Shared blocks and partial SharedBytes
// prefixes) — the per-rank physical memory footprint.
func (h *Heap) ResidentBytes() uint64 { return h.resident }

// SharedSpanBytes reports live allocation bytes backed by shared
// read-only mappings: the gap between LiveBytes and ResidentBytes.
func (h *Heap) SharedSpanBytes() uint64 { return h.live - h.resident }

// LiveBlocks reports the number of live allocations.
func (h *Heap) LiveBlocks() int { return len(h.blocks) }

// Blocks returns live blocks ordered by address.
func (h *Heap) Blocks() []*Block {
	return append([]*Block(nil), h.index...)
}

// FreeSpan is one reusable gap in a serialized heap. Restoring the free
// list alongside the blocks keeps the Isomalloc invariant across
// migration: the same allocation sequence produces the same addresses
// whether or not the rank moved in between.
type FreeSpan struct {
	Addr uint64
	Size uint64
}

// Snapshot is a serialized heap image: everything another process needs
// to reconstruct the heap at identical addresses. Block payloads are
// frozen: a snapshot reads back its capture-time contents forever, and a
// write through any of them panics.
type Snapshot struct {
	VP     int
	Brk    uint64
	Blocks []Block
	// FreeSpans is the allocator's free list, address-ordered.
	FreeSpans []FreeSpan
	// delta is the resident bytes of the blocks touched since the
	// previous snapshot: the incremental cost of this snapshot.
	delta uint64
}

// Bytes reports the number of payload bytes the snapshot logically
// carries (live block sizes; free-list structure travels as metadata).
// Blocks backed by shared mappings travel as metadata only: the
// destination remaps them instead of receiving their bytes.
func (s *Snapshot) Bytes() uint64 {
	var n uint64
	for i := range s.Blocks {
		n += s.Blocks[i].residentSpan()
	}
	return n
}

// DeltaBytes reports the payload bytes that changed since the previous
// snapshot of the same heap — the incremental cost an
// incremental-aware transport or filesystem pays. A block counts whole,
// with its resident span, when it was allocated or touched since that
// snapshot. The first snapshot of a heap has no predecessor, so its
// delta equals Bytes().
func (s *Snapshot) DeltaBytes() uint64 { return s.delta }

// Serialize captures the heap for migration or checkpoint. It copies no
// payload: each block's pages are frozen into the snapshot and shared
// with the live heap, which copies a page again only when it next
// writes it. The returned snapshot is immutable and remains valid after
// the heap changes or is discarded.
func (h *Heap) Serialize() *Snapshot {
	snap := &Snapshot{
		VP:     h.vp,
		Brk:    h.brk,
		Blocks: make([]Block, len(h.index)),
	}
	if len(h.free) > 0 {
		snap.FreeSpans = make([]FreeSpan, len(h.free))
		for i, f := range h.free {
			snap.FreeSpans[i] = FreeSpan{Addr: f.Addr, Size: f.Size}
		}
	}
	var reused, copied, frozenBytes uint64
	for i, b := range h.index {
		cp := &snap.Blocks[i]
		*cp = Block{Addr: b.Addr, Size: b.Size, Label: b.Label, Shared: b.Shared, SharedBytes: b.SharedBytes}
		var fresh uint64
		if b.Data != nil {
			cp.Data, fresh = b.Data.freeze()
		}
		if fresh > 0 {
			copied++
			frozenBytes += fresh
		} else {
			reused++
		}
		// Shared spans (whole blocks or partial read-only prefixes) are
		// remapped by the destination, never sent, so they never count.
		if b.gen != b.snapGen {
			snap.delta += b.residentSpan()
			b.snapGen = b.gen
		}
	}
	// Host-side accounting only; guarded so the metrics-off path pays a
	// single pointer comparison and skips the Bytes() walk entirely.
	if metrics.snapshots != nil {
		metrics.snapshots.Inc()
		metrics.fullBytes.Add(snap.Bytes())
		metrics.deltaBytes.Add(snap.delta)
		metrics.blocksReused.Add(reused)
		metrics.blocksCopied.Add(copied)
		metrics.arenaBytes.Add(frozenBytes)
	}
	return snap
}

// Restore reconstructs a heap from a snapshot. Addresses are preserved
// exactly; this is what makes Isomalloc migration transparent to any
// pointers held in the payload. The restored blocks share the
// snapshot's pages, so restoring copies nothing, and they start clean:
// the restored heap's own first Serialize is already incremental. The
// snapshot is only read, and may be restored any number of times.
func Restore(snap *Snapshot) *Heap {
	h := NewHeap(snap.VP)
	h.brk = snap.Brk
	n := len(snap.Blocks)
	structs := make([]Block, n) // one allocation for all block headers
	h.index = make([]*Block, 0, n)
	for i := range snap.Blocks {
		cp := &snap.Blocks[i]
		nb := &structs[i]
		*nb = Block{Addr: cp.Addr, Size: cp.Size, Label: cp.Label, Shared: cp.Shared, SharedBytes: cp.SharedBytes}
		if cp.Data != nil {
			nb.Data = cp.Data.Clone()
		}
		h.blocks[nb.Addr] = nb
		h.index = append(h.index, nb) // snapshots are address-ordered
		h.live += nb.Size
		h.resident += nb.residentSpan()
	}
	if len(snap.FreeSpans) > 0 {
		h.free = make([]*Block, len(snap.FreeSpans))
		for i, f := range snap.FreeSpans {
			h.free[i] = &Block{Addr: f.Addr, Size: f.Size}
		}
	}
	return h
}
