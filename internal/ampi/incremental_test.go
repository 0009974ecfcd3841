package ampi_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
)

// TestMigrationMovesOnlyDirtyBytes: a rank migrated every load-balance
// round pays the full payload once; later rounds transfer only the
// blocks written since the previous serialization, while the logical
// payload size stays constant.
func TestMigrationMovesOnlyDirtyBytes(t *testing.T) {
	var w *ampi.World
	var records []ampi.MigrationRecord
	const rounds = 4
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			if _, err := ctx.Heap.Alloc(256<<10, "cold-data"); err != nil {
				panic(err)
			}
			state := ctx.Var("state")
			for i := 0; i < rounds; i++ {
				state.Store(uint64(i + 1))
				r.Migrate()
				records = append(records, w.LastMigrations()...)
			}
		},
	}
	var err error
	w, err = ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindManual,
		Balancer:  lb.RotateLB{},
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(records) != rounds {
		t.Fatalf("recorded %d migrations, want %d", len(records), rounds)
	}
	first := records[0]
	if first.DeltaBytes != first.Bytes {
		t.Fatalf("first migration delta %d, want full payload %d", first.DeltaBytes, first.Bytes)
	}
	for i, rec := range records[1:] {
		if rec.Bytes != first.Bytes {
			t.Errorf("round %d logical payload %d, want %d", i+1, rec.Bytes, first.Bytes)
		}
		if rec.DeltaBytes >= rec.Bytes/2 {
			t.Errorf("round %d transferred %d of %d bytes: steady-state migration is not incremental",
				i+1, rec.DeltaBytes, rec.Bytes)
		}
	}
	if w.MigratedDeltaBytes >= w.MigratedBytes {
		t.Fatalf("world totals: delta %d >= full %d", w.MigratedDeltaBytes, w.MigratedBytes)
	}
}

// TestCheckpointWritesOnlyDirtyBytes: the first checkpoint writes the
// whole payload to the filesystem; the next one writes only what
// changed, while reporting the same logical snapshot size.
func TestCheckpointWritesOnlyDirtyBytes(t *testing.T) {
	var w *ampi.World
	var cks []*ampi.Checkpoint
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			if _, err := ctx.Heap.Alloc(256<<10, "cold-data"); err != nil {
				panic(err)
			}
			state := ctx.Var("state")
			for i := 0; i < 2; i++ {
				state.Store(uint64(i + 1))
				r.Checkpoint("/ckpt")
				cks = append(cks, w.LastCheckpoint())
			}
		},
	}
	var err error
	w, err = ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindManual,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("took %d checkpoints, want 2", len(cks))
	}
	if cks[0].DeltaBytes != cks[0].Bytes {
		t.Fatalf("first checkpoint wrote %d, want full %d", cks[0].DeltaBytes, cks[0].Bytes)
	}
	if cks[1].Bytes != cks[0].Bytes {
		t.Errorf("second checkpoint logical size %d, want %d", cks[1].Bytes, cks[0].Bytes)
	}
	if cks[1].DeltaBytes >= cks[1].Bytes/2 {
		t.Fatalf("second checkpoint wrote %d of %d bytes: not incremental", cks[1].DeltaBytes, cks[1].Bytes)
	}
}

// TestCheckpointImmutableAfterMigration guards the sharpest aliasing
// hazard in the copy-on-write path: a checkpoint taken after a
// migration (whose restored heap shares the migration snapshot's pages)
// must stay intact while the rank keeps writing and even migrates again. Restarting from
// it must see the checkpoint-time values, not the later ones.
func TestCheckpointImmutableAfterMigration(t *testing.T) {
	var blkAddr uint64
	var restoredState, restoredWord uint64
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			state := ctx.Var("state")
			if v := state.Load(); v != 0 {
				// Restart path: record what the checkpoint preserved.
				restoredState = v
				restoredWord = ctx.Heap.Lookup(blkAddr).At(0)
				return
			}
			blk, err := ctx.Heap.Alloc(4096, "data")
			if err != nil {
				panic(err)
			}
			blkAddr = blk.Addr
			blk.Set(0, 77)
			r.Migrate() // the restored heap shares the snapshot's pages
			state.Store(5)
			r.Checkpoint("/ckpt")
			// Keep mutating after the checkpoint, then migrate again: none
			// of this may leak into the kept snapshot.
			state.Store(9)
			nb := ctx.Heap.Lookup(blkAddr)
			nb.Set(0, 88)
			r.Migrate()
		},
	}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindPIEglobals,
		Balancer:  lb.RotateLB{},
	}
	w := runProgram(t, cfg, prog)
	if w.Migrations != 2 {
		t.Fatalf("completed %d migrations, want 2", w.Migrations)
	}
	ck := w.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}
	w2, err := ampi.NewWorldFromCheckpoint(cfg, prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if restoredState != 5 {
		t.Errorf("restarted state = %d, want the checkpoint-time 5", restoredState)
	}
	if restoredWord != 77 {
		t.Errorf("restarted heap word = %d, want the checkpoint-time 77", restoredWord)
	}
}
