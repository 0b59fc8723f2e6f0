package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/trace"
)

// batchConfigs returns the machine configurations the parity tests
// cover: the 1-core baseline and every policy (michaud, numa, never) at
// 2, 4 and 8 cores, with the §6 broadcast threshold off and on (0.5
// keeps the gate flipping both ways over the mix).
func batchConfigs() map[string]Config {
	cfgs := map[string]Config{"normal": NormalConfig()}
	for _, pol := range []string{migration.PolicyMichaud, migration.PolicyNuma, migration.PolicyNever} {
		for _, cores := range []int{2, 4, 8} {
			for _, thr := range []float64{0, 0.5} {
				cfg, err := MigrationConfigScenario(cores, pol, "")
				if err != nil {
					panic(err)
				}
				cfg.BroadcastThreshold = thr
				name := pol
				if pol == migration.PolicyMichaud {
					name = "migration"
				}
				if cores != 4 {
					name += fmt.Sprintf("-%d", cores)
				}
				if thr > 0 {
					name += fmt.Sprintf("-thr%v", thr)
				}
				cfgs[name] = cfg
			}
		}
	}
	return cfgs
}

// driveMix pushes n deterministic records of a mixed-kind stream
// (including an unknown kind tag, which must count a reference and
// nothing else on both paths) into sink, with instruction records
// interleaved.
func driveMix(sink mem.Sink, ws int, n int) {
	g := trace.NewCircular(uint64(ws))
	h := trace.NewCircular(uint64(ws) / 3)
	for i := 0; i < n; i++ {
		var line mem.Line
		if i%3 == 0 {
			line = mem.Line(h.Next())
		} else {
			line = mem.Line(g.Next())
		}
		addr := mem.AddrOf(line, 6)
		switch i % 16 {
		case 0, 8:
			sink.Access(addr, mem.IFetch)
		case 1:
			sink.Access(addr, mem.Store)
		case 5:
			sink.Access(addr, mem.PtrLoad)
		case 11:
			sink.Access(addr, mem.Kind(9)) // unknown kind: refs only
		default:
			sink.Access(addr, mem.Load)
		}
		if i%4 == 0 {
			sink.Instr(3)
		}
	}
}

// TestAccessBatchMatchesScalar is the machine-level differential gate:
// the same record stream delivered scalar (Access/Instr per record, the
// oracle with private L1s) and through each batch path must leave the
// machines with identical statistics, identical telemetry snapshots,
// and identical cache/controller state snapshots. The batch paths are
// a machine's own AccessBatch (private stage), a serial FanOut, and a
// pipelined FanOut; both fan-outs share one L1 stage between the
// machine under test and a 1-core baseline, as every front end does.
func TestAccessBatchMatchesScalar(t *testing.T) {
	// 200k refs on a 1.5 MB circular set overflows one L2, so the
	// migration slow path is exercised from inside the batch kernel.
	const refs = 200_000
	oracle := MustNew(NormalConfig())
	driveMix(oracle, 24<<10, refs)
	paths := map[string]func(m *Machine) *Machine{
		"batched": func(m *Machine) *Machine {
			ba := mem.NewBatcher(m, 512)
			driveMix(ba, 24<<10, refs)
			ba.Flush()
			return nil
		},
		"fanout": func(m *Machine) *Machine {
			normal := MustNew(NormalConfig())
			fan, err := NewFanOut(normal, m)
			if err != nil {
				t.Fatal(err)
			}
			ba := mem.NewBatcher(fan, 512)
			driveMix(ba, 24<<10, refs)
			ba.Flush()
			return normal
		},
		"pipelined": func(m *Machine) *Machine {
			normal := MustNew(NormalConfig())
			fan, err := NewFanOut(normal, m)
			if err != nil {
				t.Fatal(err)
			}
			pipe := fan.Pipeline(nil)
			ba := mem.NewBatcher(pipe, 512)
			driveMix(ba, 24<<10, refs)
			ba.Flush()
			pipe.Close()
			return normal
		},
	}
	for name, cfg := range batchConfigs() {
		t.Run(name, func(t *testing.T) {
			scalar := MustNew(cfg)
			driveMix(scalar, 24<<10, refs)
			for pname, deliver := range paths {
				t.Run(pname, func(t *testing.T) {
					batched := MustNew(cfg)
					if partner := deliver(batched); partner != nil {
						assertSameMachine(t, oracle, partner)
					}
					assertSameMachine(t, scalar, batched)
				})
			}
		})
	}
}

// assertSameMachine fails unless want and got agree on stats,
// telemetry and full state snapshots.
func assertSameMachine(t *testing.T, want, got *Machine) {
	t.Helper()
	if want.FinalStats() != got.FinalStats() {
		t.Errorf("stats diverge:\nscalar:  %+v\nbatched: %+v", want.FinalStats(), got.FinalStats())
	}
	if !reflect.DeepEqual(want.Telemetry().Snapshot(), got.Telemetry().Snapshot()) {
		t.Errorf("telemetry diverges:\nscalar:  %+v\nbatched: %+v",
			want.Telemetry().Snapshot(), got.Telemetry().Snapshot())
	}
	s1, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("machine snapshots diverge between scalar and batched delivery")
	}
	p1, err1 := want.PolicyState()
	p2, err2 := got.PolicyState()
	if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(p1, p2) {
		t.Error("policy states diverge between scalar and batched delivery")
	}
}

// TestAccessBatchPartialAndEmpty: AccessBatch must handle empty and
// partially filled batches (the tail flush of any stream).
func TestAccessBatchPartialAndEmpty(t *testing.T) {
	m := MustNew(NormalConfig())
	b := mem.NewBatch(64)
	m.AccessBatch(b) // empty: no-op
	if m.FinalStats() != (Stats{}) {
		t.Fatalf("empty batch mutated stats: %+v", m.FinalStats())
	}
	b.Append(mem.AddrOf(1, 6), mem.Load)
	b.AppendInstr(7)
	m.AccessBatch(b)
	st := m.FinalStats()
	if st.Loads != 1 || st.Instructions != 7 {
		t.Fatalf("partial batch: got loads=%d instrs=%d, want 1/7", st.Loads, st.Instructions)
	}
}

// TestAccessBatchRaggedPanics: the parallel-column invariant is a
// programming error worth failing loudly on.
func TestAccessBatchRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	m := MustNew(NormalConfig())
	m.AccessBatch(&mem.Batch{Addr: make([]mem.Addr, 2), Kind: make([]uint8, 1)})
}

// TestAccessBatchSteadyStateZeroAllocs extends the allocation gate to
// the batch kernels: once warm, a machine's AccessBatch, a serial
// FanOut and a pipelined FanOut (ring slots recycle, consumers included
// in the count) must not allocate.
func TestAccessBatchSteadyStateZeroAllocs(t *testing.T) {
	sinks := map[string]mem.BatchSink{}
	for name, m := range steadyMachines() {
		sinks[name] = m
	}
	fresh := steadyConfigs()
	fan, err := NewFanOut(MustNew(fresh["normal"]), MustNew(fresh["migration"]), MustNew(fresh["migration-utab"]))
	if err != nil {
		t.Fatal(err)
	}
	trace.Drive(trace.NewCircular(24<<10), fan, 100_000, 6, 3)
	sinks["fanout"] = fan
	for name, sink := range sinks {
		g := trace.NewCircular(24 << 10)
		b := mem.NewBatch(512)
		fill := func() {
			b.Reset()
			for i := 0; !b.Full(); i++ {
				line := mem.Line(g.Next())
				switch i % 8 {
				case 0:
					b.Append(mem.AddrOf(line, 6), mem.IFetch)
				case 1:
					b.Append(mem.AddrOf(line, 6), mem.Store)
				default:
					b.Append(mem.AddrOf(line, 6), mem.Load)
				}
			}
		}
		check := func(name string, sink mem.BatchSink) {
			fill()
			sink.AccessBatch(b) // warm the batch path itself
			allocs := testing.AllocsPerRun(100, func() {
				fill()
				sink.AccessBatch(b)
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op in steady-state AccessBatch; the //emlint:hotpath batch kernels must stay allocation-free", name, allocs)
			}
		}
		check(name, sink)
		if name == "fanout" {
			pipe := fan.Pipeline(nil)
			check("pipelined", pipe)
			pipe.Close()
		}
	}
}

// BenchmarkAccessBatchSteadyState is the batched counterpart of
// BenchmarkAccessSteadyState: same reference mix, delivered through
// mem.Batcher into AccessBatch in DefaultBatchLen batches.
func BenchmarkAccessBatchSteadyState(b *testing.B) {
	for name, m := range steadyMachines() {
		b.Run(name, func(b *testing.B) {
			g := trace.NewCircular(24 << 10)
			ba := mem.NewBatcher(m, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := mem.Line(g.Next())
				switch i % 8 {
				case 0:
					ba.Access(mem.AddrOf(line, 6), mem.IFetch)
				case 1:
					ba.Access(mem.AddrOf(line, 6), mem.Store)
				default:
					ba.Access(mem.AddrOf(line, 6), mem.Load)
				}
				ba.Instr(3)
			}
			ba.Flush()
		})
	}
}
