package mem

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// modelBlock is the flat reference for one block: its words (nil for
// ballast) and whether the next snapshot must count it in its delta.
type modelBlock struct {
	size  uint64
	words []uint64
	dirty bool
}

type modelHeap struct {
	h      *Heap
	blocks map[uint64]*modelBlock
	addrs  []uint64 // live block addresses, in allocation order
}

type modelSnap struct {
	s      *Snapshot
	blocks map[uint64]*modelBlock // capture-time contents
}

func (m *modelHeap) pick(b *fuzzBytes) (uint64, *modelBlock) {
	if len(m.addrs) == 0 {
		return 0, nil
	}
	a := m.addrs[b.next()%len(m.addrs)]
	return a, m.blocks[a]
}

func cloneModel(blocks map[uint64]*modelBlock) map[uint64]*modelBlock {
	out := make(map[uint64]*modelBlock, len(blocks))
	for a, mb := range blocks {
		out[a] = &modelBlock{size: mb.size, words: slices.Clone(mb.words)}
	}
	return out
}

// checkBlocks compares one heap's or snapshot's blocks with a model.
func checkBlocks(t *testing.T, what string, blocks []Block, model map[uint64]*modelBlock) {
	t.Helper()
	if len(blocks) != len(model) {
		t.Fatalf("%s: %d blocks, model has %d", what, len(blocks), len(model))
	}
	for i := range blocks {
		b := &blocks[i]
		mb := model[b.Addr]
		if mb == nil || mb.size != b.Size {
			t.Fatalf("%s: block %#x (%d bytes) not in the model", what, b.Addr, b.Size)
		}
		if (b.Data == nil) != (mb.words == nil) {
			t.Fatalf("%s: block %#x payload presence diverges from the model", what, b.Addr)
		}
		if b.Data != nil && !slices.Equal(b.Data.Words(), mb.words) {
			t.Fatalf("%s: block %#x reads different words than the model", what, b.Addr)
		}
	}
}

func liveBlocks(h *Heap) []Block {
	var out []Block
	for _, b := range h.Blocks() {
		out = append(out, *b)
	}
	return out
}

// FuzzHeapPages drives random alloc / free / write / touch / serialize
// / restore sequences over several heaps against a flat []uint64
// model, and checks that every snapshot reads back its capture-time
// contents forever, that no heap's write reaches a snapshot or a sibling
// heap (all restored from shared pages), and that DeltaBytes is the
// resident size of the blocks allocated, written or touched since the
// previous snapshot of that heap.
func FuzzHeapPages(f *testing.F) {
	// alloc, write, serialize, write again, restore, write in the
	// restored heap, serialize it, restore the older snapshot.
	f.Add([]byte{0, 0, 40, 3, 0, 0, 0, 5, 5, 3, 0, 0, 0, 9, 6, 11, 0, 0, 1, 7, 13, 7, 0})
	f.Add([]byte{0, 40, 2, 0, 3, 7, 4, 0, 2, 0, 5, 9, 5, 0, 2, 0, 1, 1})
	f.Add([]byte{0, 200, 0, 16, 4, 2, 1, 200, 9, 4, 5, 2, 1, 0, 4, 6, 0, 1, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		heaps := []*modelHeap{{h: NewHeap(3), blocks: map[uint64]*modelBlock{}}}
		var snaps []*modelSnap
		restore := func(ms *modelSnap) {
			m := &modelHeap{h: Restore(ms.s), blocks: cloneModel(ms.blocks)}
			for _, blk := range m.h.Blocks() {
				m.addrs = append(m.addrs, blk.Addr)
			}
			heaps = append(heaps, m)
			if len(heaps) > 4 {
				heaps = heaps[1:]
			}
		}
		for steps := 0; len(b) > 0 && steps < 128; steps++ {
			op := b.next()
			m := heaps[(op>>3)%len(heaps)]
			switch op % 8 {
			case 0, 1: // alloc: up to three pages, ballast when op is odd
				hi, lo := b.next(), b.next()
				if len(m.addrs) >= 12 {
					continue
				}
				size := uint64(hi<<8|lo)*13%(3*PageSize) + 1
				var blk *Block
				var err error
				if op%2 == 1 {
					blk, err = m.h.AllocBallast(size, "ballast")
				} else {
					blk, err = m.h.Alloc(size, "data")
				}
				if err != nil {
					t.Fatal(err)
				}
				mb := &modelBlock{size: blk.Size, dirty: true}
				if blk.Data != nil {
					mb.words = make([]uint64, blk.Size/8)
				}
				m.blocks[blk.Addr] = mb
				m.addrs = append(m.addrs, blk.Addr)
			case 2: // free
				a, mb := m.pick(&b)
				if mb == nil {
					continue
				}
				if err := m.h.Free(a); err != nil {
					t.Fatal(err)
				}
				delete(m.blocks, a)
				m.addrs = slices.DeleteFunc(m.addrs, func(x uint64) bool { return x == a })
			case 3: // write a word
				a, mb := m.pick(&b)
				if mb == nil || mb.words == nil {
					continue
				}
				hi, lo := b.next(), b.next()
				i := (hi<<8 | lo) % len(mb.words)
				v := uint64(b.next()) | uint64(steps)<<8
				m.h.Lookup(a).Set(i, v)
				mb.words[i] = v
				mb.dirty = true
			case 4: // touch
				a, mb := m.pick(&b)
				if mb == nil {
					continue
				}
				m.h.Lookup(a).Touch()
				mb.dirty = true
			case 5: // serialize
				s := m.h.Serialize()
				var want, full uint64
				for _, mb := range m.blocks {
					full += mb.size
					if mb.dirty {
						want += mb.size
						mb.dirty = false
					}
				}
				if s.DeltaBytes() != want || s.Bytes() != full {
					t.Fatalf("snapshot delta/bytes %d/%d, want %d/%d", s.DeltaBytes(), s.Bytes(), want, full)
				}
				snaps = append(snaps, &modelSnap{s: s, blocks: cloneModel(m.blocks)})
				if len(snaps) > 8 {
					checkBlocks(t, "dropped snapshot", snaps[0].s.Blocks, snaps[0].blocks)
					snaps = snaps[1:]
				}
			case 6: // restore the latest snapshot
				if len(snaps) > 0 {
					restore(snaps[len(snaps)-1])
				}
			case 7: // restore an older snapshot
				if len(snaps) > 0 {
					restore(snaps[b.next()%len(snaps)])
				}
			}
		}
		for i, m := range heaps {
			checkBlocks(t, fmt.Sprintf("heap %d", i), liveBlocks(m.h), m.blocks)
		}
		for i, ms := range snaps {
			checkBlocks(t, fmt.Sprintf("snapshot %d", i), ms.s.Blocks, ms.blocks)
		}
	})
}
