package machine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
)

// fanCheckpoint drives a fresh normal/migration pair through a shared
// stage and returns their checkpoint.
func fanCheckpoint(t *testing.T, refs int) (*Checkpoint, Stats, Stats) {
	t.Helper()
	normal, mig := MustNew(NormalConfig()), MustNew(MigrationConfig())
	fan, err := NewFanOut(normal, mig)
	if err != nil {
		t.Fatal(err)
	}
	ba := mem.NewBatcher(fan, 0)
	driveMix(ba, 24<<10, refs)
	ba.Flush()
	ns, err := normal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Cores: 4, Machines: []NamedSnapshot{{Name: "normal", Snap: ns}, {Name: "migration", Snap: ms}}}
	return ck, normal.Stats, mig.Stats
}

// TestFanOutRestore: a checkpoint taken from a fan-out restores into a
// fresh one; a checkpoint whose machines disagree on their L1s is
// refused with a typed error before any machine changes, instead of the
// last restore silently winning.
func TestFanOutRestore(t *testing.T) {
	ck, wantN, wantM := fanCheckpoint(t, 50_000)
	normal, mig := MustNew(NormalConfig()), MustNew(MigrationConfig())
	fan, err := NewFanOut(normal, mig)
	if err != nil {
		t.Fatal(err)
	}
	if err := fan.Restore(ck, "normal", "migration"); err != nil {
		t.Fatalf("restoring a fan-out checkpoint: %v", err)
	}
	if normal.Stats != wantN || mig.Stats != wantM {
		t.Fatal("restored stats differ from the checkpointed ones")
	}

	// Private L1s that saw different streams cannot share a stage.
	a, b := MustNew(NormalConfig()), MustNew(MigrationConfig())
	driveMix(a, 24<<10, 20_000)
	driveMix(b, 24<<10, 30_000)
	as, _ := a.Snapshot()
	bs, _ := b.Snapshot()
	bad := &Checkpoint{Cores: 4, Machines: []NamedSnapshot{{Name: "normal", Snap: as}, {Name: "migration", Snap: bs}}}
	normal, mig = MustNew(NormalConfig()), MustNew(MigrationConfig())
	if fan, err = NewFanOut(normal, mig); err != nil {
		t.Fatal(err)
	}
	err = fan.Restore(bad, "normal", "migration")
	var mismatch *L1MismatchError
	if !errors.As(err, &mismatch) || mismatch.Name != "migration" || mismatch.Want != "normal" {
		t.Fatalf("divergent L1s: got %v, want an *L1MismatchError naming migration", err)
	}
	if normal.Stats != (Stats{}) || mig.Stats != (Stats{}) {
		t.Fatal("a refused restore modified the machines")
	}
}

// TestFanOutRejectsMisuse: machines with another L1 geometry, machines
// already attached, and direct deliveries to an attached machine.
func TestFanOutRejectsMisuse(t *testing.T) {
	odd := NormalConfig()
	odd.DL1 = cache.GeometryFor(32<<10, 6, 4, false)
	if _, err := NewFanOut(MustNew(NormalConfig()), MustNew(odd)); err == nil {
		t.Error("fan-out accepted machines with different L1 geometries")
	}
	m := MustNew(NormalConfig())
	if _, err := NewFanOut(m); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFanOut(m); err == nil {
		t.Error("a machine was attached to two fan-outs")
	}
	defer func() {
		if recover() == nil {
			t.Error("AccessBatch on an attached machine did not panic")
		}
	}()
	m.AccessBatch(mem.NewBatch(1))
}

// TestPipelineReraisesMachinePanic: a panic on a machine goroutine
// reaches the producer at Close, after every goroutine has exited and
// without the producer blocking on the dead consumer's ring slots.
func TestPipelineReraisesMachinePanic(t *testing.T) {
	base := runtime.NumGoroutine()
	fan, err := NewFanOut(MustNew(NormalConfig()), MustNew(MigrationConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipe := fan.Pipeline(func(i int, _ uint64) {
		if i == 1 {
			panic("tick failed")
		}
	})
	ba := mem.NewBatcher(pipe, 64)
	driveMix(ba, 1<<10, 2_000)
	pipe.Tick(1)
	driveMix(ba, 1<<10, 2_000) // more slots than the ring holds
	ba.Flush()
	func() {
		defer func() {
			if r := recover(); r != "tick failed" {
				t.Errorf("Close re-raised %v, want the machine goroutine's panic", r)
			}
		}()
		pipe.Close()
	}()
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, %d before the pipeline", n, base)
	}
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to base (an exiting goroutine outlives its WaitGroup.Done briefly)
// and returns the last count.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNewClusterAllocatesOneL2Complex: programs 1..K-1 are built over
// program 0's L2 arrays, so beyond the programs' private state (L1s,
// policy, telemetry) a cluster allocates about one L2 complex.
func TestNewClusterAllocatesOneL2Complex(t *testing.T) {
	cfg := MigrationConfigN(8)
	complexBytes := totalAlloc(func() {
		for i := 0; i < cfg.Cores; i++ {
			cache.NewSetAssoc(cfg.L2)
		}
	})
	private := totalAlloc(func() { MustNew(cfg) }) - complexBytes
	const k = 8
	cluster := totalAlloc(func() {
		if _, err := NewCluster(cfg, k); err != nil {
			t.Fatal(err)
		}
	})
	if extra := cluster - k*private; extra > complexBytes*5/4 {
		t.Fatalf("NewCluster(%d cores, %d programs) allocated %d B beyond the programs' private state, want about one L2 complex (%d B)",
			cfg.Cores, k, extra, complexBytes)
	}
}

// totalAlloc returns the bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
