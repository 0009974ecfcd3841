package core

import (
	"fmt"
	"slices"

	"provirt/internal/elf"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// dupResult carries one rank's duplicated PIE segments.
type dupResult struct {
	inst     *elf.Instance
	codeAddr uint64
	dataAddr uint64
	// objAddrs are the rank's copies of the ctor heap objects, in the
	// base instance's order.
	objAddrs []uint64
}

// Relocation targets: the code segment, the data segment, or (values
// >= 0) the ctor heap object with that index.
const (
	relocCode = -2
	relocData = -1
)

// reloc is one word the §3.3 pointer scan rebases: every copy stores
// its own base of target plus off at word.
type reloc struct {
	word   int
	target int
	off    uint64
}

// relocations is the pointer scan of one base instance: the words of
// its data segment, and of each ctor heap object, whose values look
// like pointers into the instance. Which words those are depends only
// on the base instance, never on the rank, so pieglobals scans once per
// Setup and replays the list for every rank in O(relocations).
type relocations struct {
	data []reloc
	objs [][]reloc
}

// scanRelocations runs the §3.3 scan over src: a word is rebased when
// its value falls inside the code segment, else inside the data
// segment, else inside a ctor heap object (the first that contains it).
// The test is on the integer value alone, so a non-pointer that happens
// to look like one is rebased too — the false-positive hazard the
// authors plan to engineer away, preserved deliberately (see
// TestPIEglobalsFalsePositive).
func scanRelocations(src *elf.Instance) *relocations {
	classify := func(w uint64) (target int, off uint64, ok bool) {
		switch {
		case src.ContainsCode(w):
			return relocCode, w - src.CodeBase, true
		case src.ContainsData(w):
			return relocData, w - src.DataBase, true
		}
		if o := src.HeapObjAt(w); o != nil {
			return slices.Index(src.HeapObjs, o), w - o.Addr, true
		}
		return 0, 0, false
	}
	scan := func(p *mem.Payload) []reloc {
		var out []reloc
		for i, n := 0, p.Len(); i < n; i++ {
			// Zero is never inside a segment; skipping it keeps the scan
			// off the all-zero pages of the .bss bulk.
			if w := p.At(i); w != 0 {
				if target, off, ok := classify(w); ok {
					out = append(out, reloc{word: i, target: target, off: off})
				}
			}
		}
		return out
	}
	r := &relocations{data: scan(src.Data), objs: make([][]reloc, len(src.HeapObjs))}
	for j, o := range src.HeapObjs {
		r.objs[j] = scan(o.Data)
	}
	return r
}

// duplicateInstance implements the PIEglobals copy: allocate the code
// and data segments in the rank's Isomalloc heap, copy them, rebase the
// data copy's pointer-looking words (relocs, the scan of src) into the
// copies, and replicate the constructor heap allocations themselves.
//
// The copies share src's pages copy-on-write, so host work follows the
// pages the relocations write. The virtual charges are the paper's: a
// full copy of both segments and a scan of every word.
func duplicateInstance(env *ProcessEnv, src *elf.Instance, relocs *relocations, heap *mem.Heap, opts PIEOptions) (*dupResult, sim.Time, error) {
	img := src.Img
	var cost sim.Time

	codeBlk, err := heap.AllocBallast(img.CodeSize, "pie-code-segment")
	if err != nil {
		return nil, 0, err
	}
	dataBytes := uint64(src.Data.Len()) * 8
	dataBlk, err := heap.AllocFrom(src.Data, "pie-data-segment")
	if err != nil {
		return nil, 0, err
	}
	if opts.ShareCodePages {
		// §6 future work: the rank's code is a read-only mapping of
		// one shared descriptor — page tables only, no copy, no
		// resident footprint, no migration payload.
		heap.MarkShared(codeBlk)
		copyBytes := dataBytes
		if opts.ShareROData {
			// COW extension: the read-only slice of the data segment
			// (const cells + declared .rodata bulk) stays on the shared
			// mapping too. Only the writable delta is copied per rank;
			// the RO bytes are page-table work, not memcpy, and drop out
			// of the rank's resident footprint and migration payload.
			ro := img.Layout().ROBytes
			if ro > copyBytes {
				ro = copyBytes
			}
			heap.MarkSharedBytes(dataBlk, ro)
			copyBytes -= ro
		}
		cost += env.Cost.CopyTime(copyBytes)
	} else {
		cost += env.Cost.CopyTime(img.CodeSize + dataBytes)
	}
	cost += env.Cost.PageMapTime(img.CodeSize + dataBytes)

	dup := &dupResult{codeAddr: codeBlk.Addr, dataAddr: dataBlk.Addr}
	var objs []*elf.HeapObj
	for _, o := range src.HeapObjs {
		blk, err := heap.AllocFrom(o.Data, "pie-ctor-alloc")
		if err != nil {
			return nil, 0, err
		}
		cost += env.Cost.CopyTime(o.Size) + env.Cost.CtorReplayPerAlloc
		dup.objAddrs = append(dup.objAddrs, blk.Addr)
		objs = append(objs, &elf.HeapObj{Addr: blk.Addr, Size: o.Size, Data: blk.Data})
	}

	base := func(target int) uint64 {
		switch target {
		case relocCode:
			return dup.codeAddr
		case relocData:
			return dup.dataAddr
		default:
			return dup.objAddrs[target]
		}
	}
	replay := func(dst *mem.Payload, list []reloc) {
		for _, r := range list {
			dst.Set(r.word, base(r.target)+r.off)
		}
		cost += sim.Time(dst.Len()) * env.Cost.PointerScanPerWord
	}
	// GOT entries live inside the data segment and are rebased by the
	// same pass; the ctor objects' pointers (vtables, cross-object
	// pointers) by their own lists.
	replay(dataBlk.Data, relocs.data)
	for j, o := range objs {
		replay(o.Data, relocs.objs[j])
	}

	dup.inst = &elf.Instance{
		Img:        img,
		Namespace:  src.Namespace,
		CodeBase:   dup.codeAddr,
		DataBase:   dup.dataAddr,
		Data:       dataBlk.Data,
		HeapObjs:   objs,
		Migratable: true,
	}
	return dup, cost, nil
}

// rebindPrivateInstance reattaches a migrated PIEglobals context's
// private instance to the restored heap blocks (same addresses, new
// storage). Called after mem.Restore on the destination process.
func rebindPrivateInstance(c *RankContext) error {
	if c.pieDataAddr == 0 {
		return nil
	}
	dataBlk := c.Heap.Lookup(c.pieDataAddr)
	if dataBlk == nil {
		return fmt.Errorf("core: rank %d: restored heap lost data segment block at %#x", c.VP, c.pieDataAddr)
	}
	codeBlk := c.Heap.Lookup(c.pieCodeAddr)
	if codeBlk == nil {
		return fmt.Errorf("core: rank %d: restored heap lost code segment block at %#x", c.VP, c.pieCodeAddr)
	}
	var objs []*elf.HeapObj
	for _, na := range c.pieObjAddrs {
		blk := c.Heap.Lookup(na)
		if blk == nil {
			return fmt.Errorf("core: rank %d: restored heap lost ctor allocation at %#x", c.VP, na)
		}
		objs = append(objs, &elf.HeapObj{Addr: blk.Addr, Size: blk.Size, Data: blk.Data})
	}
	c.Private = &elf.Instance{
		Img:        c.Img,
		Namespace:  c.Private.Namespace,
		CodeBase:   c.pieCodeAddr,
		DataBase:   c.pieDataAddr,
		Data:       dataBlk.Data,
		HeapObjs:   objs,
		Migratable: true,
	}
	return nil
}
