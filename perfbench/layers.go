package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/sampling"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workloads/suite"
)

// layerReps is how many times each cheap layer pass repeats; the
// reported figure is the median.
const layerReps = 3

// Sampling parameters: emsim's -sample defaults.
const (
	sampleInterval = 1_000_000
	sampleClusters = 8
	sampleSeed     = 42
	sampleWarmup   = 1
)

// stream is a workload's event stream recorded in memory as the
// batches its generator emits through mem.Batcher.
type stream struct {
	batches []*mem.Batch
	events  uint64
}

func (s *stream) Access(mem.Addr, mem.Kind) {}
func (s *stream) Instr(uint64)              {}
func (s *stream) AccessBatch(b *mem.Batch) {
	s.batches = append(s.batches, &mem.Batch{
		Addr: append([]mem.Addr(nil), b.Addr...),
		Kind: append([]uint8(nil), b.Kind...),
	})
	s.events += uint64(b.Len())
}

// replay re-drives the recorded batches into sink.
func (s *stream) replay(sink mem.BatchSink) error {
	for _, b := range s.batches {
		sink.AccessBatch(b)
	}
	return nil
}

// discard drops events: the sink generation is timed into.
type discard struct{}

func (discard) Access(mem.Addr, mem.Kind) {}
func (discard) Instr(uint64)              {}
func (discard) AccessBatch(*mem.Batch)    {}

// generate runs a workload's generator into sink through mem.Batcher,
// exactly as emsim and the service drive it.
func generate(program string, instr uint64, sink mem.BatchSink) error {
	w, err := suite.Registry().New(program)
	if err != nil {
		return err
	}
	ba := mem.NewBatcher(sink, 0)
	w.Run(ba, instr)
	ba.Flush()
	return nil
}

// repeat times f layerReps times inside spans and returns the median.
func repeat(b *bench, name string, parent int, f func() error) (time.Duration, error) {
	var xs []float64
	for i := 0; i < layerReps; i++ {
		d, err := b.tr.timed(name, parent, func(int) error { return f() })
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs)), nil
}

// perCall times n calls of f in 20 batches and returns the median
// per-call time of a batch, for operations too short to time singly.
func perCall(b *bench, name string, parent int, n int, f func(i int) error) (time.Duration, error) {
	const batches = 20
	var xs []float64
	for k := 0; k < batches; k++ {
		d, err := b.tr.timed(name, parent, func(int) error {
			for i := 0; i < n/batches; i++ {
				if err := f(k*n/batches + i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d)/float64(n/batches))
	}
	return time.Duration(median(xs)), nil
}

// layerTimes is what reconciliation needs from the layer ledger.
type layerTimes struct {
	events                   uint64
	gen, normal, mig         time.Duration // whole recorded stream
	profilePass, clusterTime time.Duration // profile pass includes generation, as in emsim -sample
	simulate                 time.Duration
	coldInproc, hitInproc    time.Duration
	hitHTTP                  time.Duration
	sweep, storeGet          time.Duration
}

func ns(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
func us(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e6 }

// l1Pass drives the stream's references through a pair of paper L1s
// (instruction and data), with the machine's fill rules: loads and
// fetches allocate on a miss, stores do not.
func l1Pass(s *stream, shift uint) (refs, misses uint64) {
	il1 := cache.NewSetAssoc(machine.PaperL1())
	dl1 := cache.NewSetAssoc(machine.PaperL1())
	for _, b := range s.batches {
		for i, k := range b.Kind {
			if k == mem.KindInstr {
				continue
			}
			refs++
			line := mem.LineOf(b.Addr[i], shift)
			l1 := dl1
			if mem.Kind(k) == mem.IFetch {
				l1 = il1
			}
			if _, ok := l1.Probe(line); ok {
				continue
			}
			misses++
			if mem.Kind(k) != mem.Store {
				l1.InsertProbed(line, 0)
			}
		}
	}
	return refs, misses
}

// missStream is the controller's input: the migration machine's
// L1-miss requests in order, whether each went on to miss the active L2
// (the OnL2Miss call), and whether it came from a pointer load.
type missStream struct {
	lines  []mem.Line
	l2miss []bool
	ptr    []bool
}

// recordRequests replays the stream through the migration machine's
// placement rules (one mirrored L1 pair, one L2 per core, stores
// written through to the active L2, the controller choosing the active
// core on active-L2 misses) and records the controller's call sequence.
// Replaying that sequence into a fresh controller repeats its decisions
// exactly, so the controller can be timed alone.
func recordRequests(s *stream, cfg machine.Config) (missStream, error) {
	var ms missStream
	ctrl, err := migration.NewController(*cfg.Migration)
	if err != nil {
		return ms, err
	}
	il1, dl1 := cache.NewSetAssoc(cfg.IL1), cache.NewSetAssoc(cfg.DL1)
	l2 := make([]*cache.SetAssoc, cfg.Cores)
	for i := range l2 {
		l2[i] = cache.NewSetAssoc(cfg.L2)
	}
	active := 0
	request := func(line mem.Line, ptr bool) {
		if core, moved := ctrl.OnRequest(line); moved {
			active = core
		}
		_, hit := l2[active].Probe(line)
		ms.lines = append(ms.lines, line)
		ms.l2miss = append(ms.l2miss, !hit)
		ms.ptr = append(ms.ptr, ptr)
		if hit {
			return
		}
		if core, moved := ctrl.OnL2Miss(ptr); moved {
			active = core
			if _, ok := l2[active].Probe(line); ok {
				return
			}
		}
		l2[active].InsertProbed(line, 0)
	}
	for _, b := range s.batches {
		for i, k := range b.Kind {
			if k == mem.KindInstr {
				continue
			}
			line := mem.LineOf(b.Addr[i], cfg.LineShift)
			switch mem.Kind(k) {
			case mem.IFetch, mem.Load, mem.PtrLoad:
				l1 := dl1
				if mem.Kind(k) == mem.IFetch {
					l1 = il1
				}
				if _, ok := l1.Probe(line); !ok {
					request(line, mem.Kind(k) == mem.PtrLoad)
					l1.InsertProbed(line, 0)
				}
			case mem.Store:
				if _, ok := dl1.Probe(line); !ok {
					request(line, false)
				} else if _, ok := l2[active].Probe(line); !ok {
					l2[active].InsertProbed(line, 0)
				}
			}
		}
	}
	return ms, nil
}

// machinePass replays the stream into a fresh machine.
func machinePass(s *stream, cfg machine.Config) (*machine.Machine, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return m, s.replay(m)
}

// layerLedger measures every layer on one workload's program at budget
// instr and sets the per-layer metrics. sample selects the sampled
// service request.
func layerLedger(b *bench, program string, instr uint64, sample bool, parent int) (layerTimes, error) {
	var lt layerTimes
	normalCfg := machine.NormalConfig()
	migCfg := machine.MigrationConfigN(service.DefaultCores)
	shift := normalCfg.LineShift

	rec := &stream{}
	if _, err := b.tr.timed("record stream", parent, func(int) error { return generate(program, instr, rec) }); err != nil {
		return lt, err
	}
	lt.events = rec.events
	note("layer stream: %s at %d instructions = %d events in %d batches", program, instr, rec.events, len(rec.batches))

	// workloads (+ sim, mem.Batcher): generation into a discarding sink.
	var err error
	lt.gen, err = repeat(b, "workloads.Run+mem.Batcher", parent, func() error { return generate(program, instr, discard{}) })
	if err != nil {
		return lt, err
	}
	b.set("workloads.gen_ns_per_event", "ns", ns(lt.gen, rec.events))
	b.set("workloads.events", "count", float64(rec.events))

	// cache: the two L1s alone.
	var refs, l1miss uint64
	l1, err := repeat(b, "cache.SetAssoc L1 Probe/InsertProbed", parent, func() error {
		refs, l1miss = l1Pass(rec, shift)
		return nil
	})
	if err != nil {
		return lt, err
	}
	b.set("cache.l1_ns_per_ref", "ns", ns(l1, refs))
	b.set("cache.l1_miss_ratio", "ratio", float64(l1miss)/float64(refs))

	// machine: both configurations through AccessBatch.
	var normal, mig *machine.Machine
	lt.normal, err = repeat(b, "machine.AccessBatch normal", parent, func() (err error) {
		normal, err = machinePass(rec, normalCfg)
		return err
	})
	if err != nil {
		return lt, err
	}
	lt.mig, err = repeat(b, "machine.AccessBatch migration", parent, func() (err error) {
		mig, err = machinePass(rec, migCfg)
		return err
	})
	if err != nil {
		return lt, err
	}
	nst, mst := normal.FinalStats(), mig.FinalStats()
	b.set("machine.normal_ns_per_event", "ns", ns(lt.normal, rec.events))
	b.set("machine.migration_ns_per_event", "ns", ns(lt.mig, rec.events))
	b.set("machine.l2_ns_per_l1miss", "ns", ns(lt.normal-l1, nst.L1Misses()))
	b.set("machine.l2_miss_ratio", "ratio", float64(nst.L2Misses)/float64(nst.L1Misses()))

	// migration / affinity: the controller over the L1-miss stream.
	missRec, err := recordRequests(rec, migCfg)
	if err != nil {
		return lt, err
	}
	var migrations uint64
	ctrl, err := repeat(b, "migration.Controller OnRequest/OnL2Miss", parent, func() error {
		c, err := migration.NewController(*migCfg.Migration)
		if err != nil {
			return err
		}
		migrations = 0
		for i, line := range missRec.lines {
			if _, moved := c.OnRequest(line); moved {
				migrations++
			}
			if missRec.l2miss[i] {
				if _, moved := c.OnL2Miss(missRec.ptr[i]); moved {
					migrations++
				}
			}
		}
		return nil
	})
	if err != nil {
		return lt, err
	}
	b.check(migrations == mst.Migrations && uint64(len(missRec.lines)) == mst.L1Misses(),
		"controller replay: %d migrations over %d L1 misses, the migration machine made %d over %d",
		migrations, len(missRec.lines), mst.Migrations, mst.L1Misses())
	b.set("migration.controller_ns_per_l1miss", "ns", ns(ctrl, mst.L1Misses()))
	b.set("migration.migrations", "count", float64(mst.Migrations))
	b.set("machine.coherence_ns_per_l1miss", "ns", ns(lt.mig-lt.normal-ctrl, mst.L1Misses()))

	// machine checkpoint codec: the warm two-machine EMCKPT1.
	if err := checkpointLedger(b, program, instr, rec.events, normal, mig, parent); err != nil {
		return lt, err
	}

	// sampling / lrustack.
	if err := samplingLedger(b, program, instr, rec, &lt, normalCfg, migCfg, parent); err != nil {
		return lt, err
	}

	// report.
	sizes := svcSweep.Sizes
	lt.sweep, err = repeat(b, "report.SweepWorkingSetOpt", parent, func() error {
		_, err := report.SweepWorkingSetOpt(sizes, svcSweep.Laps, svcSweep.Cores, report.RunOptions{Workers: 1})
		return err
	})
	if err != nil {
		return lt, err
	}
	b.set("report.sweep_point_ms", "ms", ms(lt.sweep)/float64(len(sizes)))
	res := report.RunResultJSON{Workload: program, Instr: instr, Cores: service.DefaultCores, Events: rec.events, Normal: nst, Migration: mst}
	runJSON, err := perCall(b, "report.WriteRunJSON", parent, 2000, func(int) error { return report.WriteRunJSON(io.Discard, res) })
	if err != nil {
		return lt, err
	}
	b.set("report.run_json_us", "us", us(runJSON))

	// service and store.
	if err := serviceLedger(b, program, instr, sample, &lt, parent); err != nil {
		return lt, err
	}
	return lt, nil
}

func checkpointLedger(b *bench, program string, instr, events uint64, normal, mig *machine.Machine, parent int) error {
	nsnap, err := normal.Snapshot()
	if err != nil {
		return err
	}
	msnap, err := mig.Snapshot()
	if err != nil {
		return err
	}
	ck := &machine.Checkpoint{
		Workload: program, Instr: instr, Cores: service.DefaultCores, Events: events,
		Machines: []machine.NamedSnapshot{{Name: "normal", Snap: nsnap}, {Name: "migration", Snap: msnap}},
	}
	var buf bytes.Buffer
	enc, err := repeat(b, "machine.WriteCheckpoint", parent, func() error {
		buf.Reset()
		return machine.WriteCheckpoint(&buf, ck)
	})
	if err != nil {
		return err
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	dec, err := repeat(b, "machine.ReadCheckpoint", parent, func() error {
		back, err := machine.ReadCheckpoint(bytes.NewReader(encoded))
		if err == nil && back.Events != events {
			err = fmt.Errorf("checkpoint round trip: events %d, want %d", back.Events, events)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("machine.ckpt_encode_us", "us", us(enc))
	b.set("machine.ckpt_decode_us", "us", us(dec))
	b.set("machine.ckpt_bytes", "bytes", float64(len(encoded)))
	return nil
}

// samplingLedger times the sampling pipeline the way emsim -sample runs
// it: a profile pass over the generated stream, k-medoids, then chain
// simulation on the default worker pool with warm starts.
func samplingLedger(b *bench, program string, instr uint64, rec *stream, lt *layerTimes, normalCfg, migCfg machine.Config, parent int) error {
	top := b.tr.begin("sampling (emsim -sample pipeline)", parent)
	defer b.tr.end(top)

	// The profiler alone, over the recorded stream.
	prof, err := sampling.NewProfiler(sampleInterval, normalCfg.LineShift)
	if err != nil {
		return err
	}
	profOnly, err := b.tr.timed("sampling.Profiler (recorded stream)", top, func(int) error { return rec.replay(prof) })
	if err != nil {
		return err
	}
	b.set("sampling.profile_ns_per_event", "ns", ns(profOnly, rec.events))

	src := func(sink mem.BatchSink) error { return generate(program, instr, sink) }
	prof, err = sampling.NewProfiler(sampleInterval, normalCfg.LineShift)
	if err != nil {
		return err
	}
	lt.profilePass, err = b.tr.timed("sampling profile pass (generate+profile)", top, func(int) error { return src(prof) })
	if err != nil {
		return err
	}
	intervals := prof.Finish()
	var cl sampling.Clusters
	var plan sampling.Plan
	lt.clusterTime, _ = b.tr.timed("sampling.Cluster+NewPlan", top, func(int) error {
		cl = sampling.Cluster(intervals, sampleClusters, sampleSeed)
		plan = sampling.NewPlan(intervals, cl, sampleWarmup)
		return nil
	})
	var sim sampling.SimResult
	lt.simulate, err = b.tr.timed("sampling.Simulate", top, func(int) (err error) {
		sim, err = sampling.Simulate(context.Background(), src, intervals, plan, sampling.SimConfig{Normal: normalCfg, Mig: migCfg})
		return err
	})
	if err != nil {
		return err
	}
	sampled := lt.profilePass + lt.clusterTime + lt.simulate
	full := lt.gen + lt.normal + lt.mig
	b.set("sampling.cluster_ms", "ms", ms(lt.clusterTime))
	b.set("sampling.simulate_s", "s", lt.simulate.Seconds())
	b.set("sampling.delivered_ratio", "ratio", float64(sim.DeliveredEvents)/float64(prof.Events()))
	b.set("sampling.host_speedup", "ratio", float64(full)/float64(sampled))
	note("sampling: %d intervals, %d clusters, %d measured; full serial (gen+normal+migration) %.3f s vs sampled (profile pass+cluster+simulate) %.3f s",
		len(intervals), cl.K(), len(plan.Measured), full.Seconds(), sampled.Seconds())
	return nil
}

func serviceLedger(b *bench, program string, instr uint64, sample bool, lt *layerTimes, parent int) error {
	spec := service.RunSpec{Workload: program, Instr: instr, Sample: sample}
	key, err := perCall(b, "service.RunSpec.Key", parent, 20000, func(int) error {
		if spec.Key() == "" {
			return fmt.Errorf("empty key")
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("service.key_us", "us", us(key))

	svc := service.New(service.Config{Workers: 1})
	var body []byte
	lt.coldInproc, err = b.tr.timed("service.Run cold", parent, func(int) (err error) {
		var cached bool
		body, cached, err = svc.Run(context.Background(), spec)
		if err == nil && cached {
			err = fmt.Errorf("first request was served from cache")
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("service.cold_run_inproc_ms", "ms", ms(lt.coldInproc))
	lt.hitInproc, err = perCall(b, "service.Run hit", parent, 20000, func(int) error {
		got, cached, err := svc.Run(context.Background(), spec)
		if err == nil && (!cached || len(got) != len(body)) {
			err = fmt.Errorf("memory hit returned cached=%v, %d bytes (want %d)", cached, len(got), len(body))
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("service.hit_inproc_us", "us", us(lt.hitInproc))

	// HTTP: the same memory hit through Handler, httptest and a
	// keep-alive client, one request at a time.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	hc := svcClient()
	defer hc.CloseIdleConnections()
	req := service.RunRequest{RunSpec: spec}
	lt.hitHTTP, err = perCall(b, "POST /run hit (one client)", parent, 4000, func(int) error {
		rep, err := post(hc, srv.URL+"/run", req)
		if err == nil && (rep.status != http.StatusOK || rep.cache != "hit" || !bytes.Equal(rep.body, body)) {
			err = fmt.Errorf("HTTP hit: status %d cache %q", rep.status, rep.cache)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("service.hit_http_us", "us", us(lt.hitHTTP))

	dir := filepath.Join(b.outDir, "layer-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{}) // emsimd's default durability
	if err != nil {
		return err
	}
	keys := make([]string, 400)
	for i := range keys {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", spec.Key(), i)))
		keys[i] = hex.EncodeToString(h[:])
	}
	put, err := perCall(b, "store.Put", parent, len(keys), func(i int) error { return st.Put(keys[i], body) })
	if err != nil {
		return err
	}
	lt.storeGet, err = perCall(b, "store.Get", parent, len(keys), func(i int) error {
		got, err := st.Get(keys[i])
		if err == nil && !bytes.Equal(got, body) {
			err = fmt.Errorf("store.Get returned other bytes")
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("store.put_us", "us", us(put))
	b.set("store.get_us", "us", us(lt.storeGet))
	return nil
}

// reconcileTolerance is the share of the end-to-end figure the layer
// sum may miss it by and still count as reconciled.
const reconcileTolerance = 0.25

// reconcile compares a layer sum with the end-to-end figure it should
// explain, sets ledger.gap_share, and names what the gap consists of.
func reconcile(b *bench, what string, predicted, measured float64, gap string) {
	share := math.Abs(measured-predicted) / measured
	b.set("ledger.gap_share", "ratio", share)
	verdict := fmt.Sprintf("reconciled within ±%.0f%%", reconcileTolerance*100)
	if share > reconcileTolerance {
		verdict = "NOT reconciled"
	}
	note("reconcile %s: layers %.3f s vs end-to-end %.3f s — %s; unmeasured gap %+.3f s: %s",
		what, predicted, measured, verdict, measured-predicted, gap)
}
