package core

import (
	"slices"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// refDup is one rank's PIEglobals copy as the reference scan builds it.
type refDup struct {
	codeAddr, dataAddr uint64
	objAddrs           []uint64
	data               []uint64
	objs               [][]uint64
}

// referenceDuplicate is the PIEglobals copy as a straight per-word
// scan: copy the data segment and every ctor heap object, then rebase
// each word whose value falls in the code segment, else the data
// segment, else (by exact start, then containment) a ctor heap object.
// It allocates and charges exactly as duplicateInstance must, so the
// replayed copy can be compared with it word for word and cost for cost.
func referenceDuplicate(env *ProcessEnv, src *elf.Instance, heap *mem.Heap, opts PIEOptions) (*refDup, sim.Time, error) {
	img := src.Img
	var cost sim.Time
	codeBlk, err := heap.AllocBallast(img.CodeSize, "pie-code-segment")
	if err != nil {
		return nil, 0, err
	}
	dataBytes := uint64(src.Data.Len()) * 8
	dataBlk, err := heap.Alloc(dataBytes, "pie-data-segment")
	if err != nil {
		return nil, 0, err
	}
	if opts.ShareCodePages {
		heap.MarkShared(codeBlk)
		copyBytes := dataBytes
		if opts.ShareROData {
			ro := min(img.Layout().ROBytes, copyBytes)
			heap.MarkSharedBytes(dataBlk, ro)
			copyBytes -= ro
		}
		cost += env.Cost.CopyTime(copyBytes)
	} else {
		cost += env.Cost.CopyTime(img.CodeSize + dataBytes)
	}
	cost += env.Cost.PageMapTime(img.CodeSize + dataBytes)

	d := &refDup{codeAddr: codeBlk.Addr, dataAddr: dataBlk.Addr}
	heapObjAddrs := make(map[uint64]uint64)
	for _, o := range src.HeapObjs {
		blk, err := heap.Alloc(o.Size, "pie-ctor-alloc")
		if err != nil {
			return nil, 0, err
		}
		cost += env.Cost.CopyTime(o.Size) + env.Cost.CtorReplayPerAlloc
		heapObjAddrs[o.Addr] = blk.Addr
		d.objAddrs = append(d.objAddrs, blk.Addr)
		d.objs = append(d.objs, o.Data.Words())
	}
	rebase := func(w uint64) uint64 {
		switch {
		case src.ContainsCode(w):
			return d.codeAddr + (w - src.CodeBase)
		case src.ContainsData(w):
			return d.dataAddr + (w - src.DataBase)
		default:
			if na, ok := heapObjAddrs[w]; ok {
				return na
			}
			if obj := src.HeapObjAt(w); obj != nil {
				return heapObjAddrs[obj.Addr] + (w - obj.Addr)
			}
			return w
		}
	}
	d.data = src.Data.Words()
	for i, w := range d.data {
		d.data[i] = rebase(w)
	}
	cost += sim.Time(len(d.data)) * env.Cost.PointerScanPerWord
	for _, words := range d.objs {
		for i, w := range words {
			words[i] = rebase(w)
		}
		cost += sim.Time(len(words)) * env.Cost.PointerScanPerWord
	}
	return d, cost, nil
}

// checkReplayMatchesScan duplicates img's base instance for two ranks
// under every PIE option set, once by relocation replay and once by the
// reference scan, and requires identical addresses, words (data segment
// and every ctor object) and virtual cost — and an untouched base
// instance, whose pages the replayed copies share.
func checkReplayMatchesScan(t *testing.T, img *elf.Image) {
	t.Helper()
	for _, opts := range []PIEOptions{{}, {ShareCodePages: true}, {ShareCodePages: true, ShareROData: true}} {
		env := testEnv(t, false)
		h, _, err := loadBaseProgram(env, img, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := h.Inst
		before := src.Data.Words()
		relocs := scanRelocations(src)
		for vp := 0; vp < 2; vp++ {
			got, gotCost, err := duplicateInstance(env, src, relocs, mem.NewHeap(vp), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantCost, err := referenceDuplicate(env, src, mem.NewHeap(vp), opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotCost != wantCost {
				t.Errorf("%+v rank %d: setup cost %v, reference %v", opts, vp, gotCost, wantCost)
			}
			if got.codeAddr != want.codeAddr || got.dataAddr != want.dataAddr || !slices.Equal(got.objAddrs, want.objAddrs) {
				t.Fatalf("%+v rank %d: segment addresses diverge from the reference", opts, vp)
			}
			if words := got.inst.Data.Words(); !slices.Equal(words, want.data) {
				i := 0
				for i < len(words) && words[i] == want.data[i] {
					i++
				}
				t.Fatalf("%+v rank %d: data word %d of %d diverges from the reference scan", opts, vp, i, len(words))
			}
			for j, o := range got.inst.HeapObjs {
				if !slices.Equal(o.Data.Words(), want.objs[j]) {
					t.Fatalf("%+v rank %d: ctor object %d diverges from the reference scan", opts, vp, j)
				}
			}
		}
		if !slices.Equal(src.Data.Words(), before) {
			t.Fatalf("%+v: duplication wrote into the base instance", opts)
		}
	}
}

// TestReplayMatchesScan: the relocation replay reproduces the per-word
// scan on the §3.3 false-positive image (an integer that looks like a
// code pointer, one that looks like a data pointer) and on an image
// whose constructors allocate objects holding function pointers and
// store pointers to them.
func TestReplayMatchesScan(t *testing.T) {
	probe := setup(t, KindPIEglobals, testEnv(t, false), testImage(t), 1)
	codeBase, dataBase := probe.SharedInstance.CodeBase, probe.SharedInstance.DataBase
	trap := elf.NewBuilder("trap").
		Global("innocent_int", codeBase+64).
		Global("innocent_data", dataBase+8).
		Func("main", 1024).
		MustBuild()
	cpp := elf.NewBuilder("cpp").
		Language("c++").
		Global("obj", 0).
		Global("table", 0).
		Global("vfn", 0).
		Static("plain", 77).
		Const("ro", 5).
		Func("main", 512).
		Func("vmethod", 128).
		Func("other", 64).
		DataBulk(64 << 10).
		Ctor(elf.Ctor{
			Allocs: []elf.CtorAlloc{{Size: 64, FuncPtrSlots: []int{0, 3}}, {Size: 5000, FuncPtrSlots: []int{1, 600}}},
			Writes: []elf.CtorWrite{elf.AllocPtrWrite("obj", 0), elf.AllocPtrWrite("table", 1)},
		}).
		Ctor(elf.Ctor{
			Allocs: []elf.CtorAlloc{{Size: 24}},
			Writes: []elf.CtorWrite{elf.FuncPtrWrite("vfn", "vmethod"), elf.ValueWrite("plain", 78)},
		}).
		MustBuild()
	for _, img := range []*elf.Image{trap, cpp} {
		t.Run(img.Name, func(t *testing.T) { checkReplayMatchesScan(t, img) })
	}
}
