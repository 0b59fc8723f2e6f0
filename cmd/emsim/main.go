// Command emsim runs one workload through the execution-migration
// machine model and prints a full event-count report for both the
// 1-core baseline and the 4-core migration configuration, including the
// §2.4/§4.2 break-even analysis and update-bus traffic.
//
// Usage:
//
//	emsim -workload 181.mcf -instr 50000000
//	emsim -cores 8                       # §6 scaling extension
//	emsim -record mcf.trace              # record instead of simulating
//	emsim -replay mcf.trace              # drive the machines from a trace
//	emsim -checkpoint run.ckpt -checkpoint-every 1000000
//	emsim -resume run.ckpt               # continue an interrupted run
//	emsim -j 2                           # pipeline the two machines behind one generator
//	emsim -cpuprofile cpu.pprof -memprofile mem.pprof
//	emsim -json                          # machine-readable result (same bytes as emsimd /run)
//	emsim -list
//
// A SIGINT (ctrl-C) or SIGTERM mid-run stops the simulation at the next
// event, writes a final checkpoint when -checkpoint is set, and prints
// the partial report; a second signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ioutilx"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telemetry/telhttp"
	"repro/internal/trace"
	"repro/internal/workloads/suite"
)

func main() {
	var (
		name      = flag.String("workload", "179.art", "workload name")
		instr     = flag.Uint64("instr", 20_000_000, "instruction budget")
		cores     = flag.Int("cores", 4, "cores in the migration configuration (2, 4 or 8)")
		policy    = flag.String("policy", "", fmt.Sprintf("migration policy %v (default %s)", migration.PolicyNames(), migration.PolicyMichaud))
		topology  = flag.String("topology", "", fmt.Sprintf("core-distance topology %v (default %s)", migration.TopologyNames(), migration.TopologyUniform))
		programs  = flag.String("programs", "", "multiprogrammed run: an integer K (K copies of -workload) or a comma-separated workload list sharing one L2 complex")
		record    = flag.String("record", "", "record the workload's reference stream to this file and exit")
		replay    = flag.String("replay", "", "replay a recorded trace instead of running the workload")
		ckpt      = flag.String("checkpoint", "", "write checkpoints to this file (periodically with -checkpoint-every, and on SIGINT)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "events between periodic checkpoints (0 = only on interrupt)")
		resume    = flag.String("resume", "", "resume from this checkpoint file (run parameters come from the checkpoint)")
		list      = flag.Bool("list", false, "list available workloads")
		jobs      = flag.Int("j", 0, "machine goroutines: 0 = all cores, 1 = both machines serially on the generating goroutine; otherwise each machine consumes the one filtered stream on its own goroutine (checkpoint, resume and -scalar force serial)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		timeline  = flag.String("timeline", "", "write per-interval metric samples of both machines as JSONL to this file (\"-\" = stdout)")
		interval  = flag.Uint64("interval", 1_000_000, "events between timeline/metrics samples")
		metrics   = flag.String("metrics", "", "serve live metrics as JSON on this address (e.g. :8080) for the duration of the run")
		jsonOut   = flag.Bool("json", false, "print the machine-readable result JSON instead of the human report")
		scalar    = flag.Bool("scalar", false, "use the per-reference scalar delivery path instead of columnar batches (differential testing)")

		sample         = flag.Bool("sample", false, "interval sampling: estimate the result from representative intervals only (output is clearly labelled ESTIMATED)")
		sampleInterval = flag.Uint64("sample-interval", 1_000_000, "instructions per sampling interval")
		sampleClusters = flag.Int("sample-clusters", 8, "number of interval clusters (representatives) to simulate")
		sampleSeed     = flag.Uint64("sample-seed", 42, "clustering seed (same seed = byte-identical estimates)")
		sampleWarmup   = flag.Int("sample-warmup", 1, "unmeasured warmup intervals simulated before each sampled interval")
		sampleVerify   = flag.Bool("sample-verify", false, "also run at full fidelity and print the estimate-vs-actual error table")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	reg := suite.Registry()
	if *list {
		for _, n := range reg.Names() {
			w, _ := reg.New(n)
			fmt.Printf("%-12s %-9s %s\n", n, w.Suite(), w.Description())
		}
		return
	}

	// Reject bad flag combinations before any work happens.
	if *record != "" && *replay != "" {
		fail(fmt.Errorf("emsim: -record and -replay are mutually exclusive"))
	}
	if *record != "" && *resume != "" {
		fail(fmt.Errorf("emsim: -record and -resume are mutually exclusive"))
	}
	if (*timeline != "" || *metrics != "") && *interval == 0 {
		fail(fmt.Errorf("emsim: -interval must be positive with -timeline or -metrics"))
	}
	if *programs != "" {
		// A multiprogrammed run is a different experiment shape: no
		// single event stream exists to record, replay, checkpoint or
		// sample, so the stream-shaping flags are rejected up front.
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*record != "", "-record"}, {*replay != "", "-replay"},
			{*ckpt != "", "-checkpoint"}, {*resume != "", "-resume"},
			{*timeline != "", "-timeline"}, {*metrics != "", "-metrics"},
			{*scalar, "-scalar"}, {*sample, "-sample"},
		} {
			if bad.set {
				fail(fmt.Errorf("emsim: %s is incompatible with -programs", bad.flag))
			}
		}
	}
	if *sample {
		// A sampled run estimates; the stream-consuming side channels of
		// a full run (checkpoints, timelines, live metrics) have no
		// meaningful sampled counterpart and are rejected rather than
		// silently ignored.
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*record != "", "-record"}, {*ckpt != "", "-checkpoint"},
			{*resume != "", "-resume"}, {*timeline != "", "-timeline"},
			{*metrics != "", "-metrics"},
		} {
			if bad.set {
				fail(fmt.Errorf("emsim: %s is incompatible with -sample", bad.flag))
			}
		}
		if *sampleVerify && *jsonOut {
			fail(fmt.Errorf("emsim: -sample-verify is incompatible with -json (the verify table is human output)"))
		}
	} else {
		// Sampling sub-flags without -sample would silently do nothing;
		// reject the ones the user explicitly set.
		sampleFlags := map[string]bool{
			"sample-interval": true, "sample-clusters": true,
			"sample-seed": true, "sample-warmup": true, "sample-verify": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if sampleFlags[f.Name] {
				fail(fmt.Errorf("emsim: -%s requires -sample", f.Name))
			}
		})
	}
	p := runParams{
		Workload:        *name,
		Instr:           *instr,
		Cores:           *cores,
		Policy:          *policy,
		Topology:        *topology,
		Replay:          *replay,
		Workers:         *jobs,
		Checkpoint:      *ckpt,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		Scalar:          *scalar,
	}
	if *timeline != "" || *metrics != "" {
		p.TimelineInterval = *interval
	}
	if *resume == "" {
		if err := p.validate(); err != nil {
			fail(err)
		}
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fail(err)
		}
		w, err := reg.New(*name)
		if err != nil {
			fail(err)
		}
		tw, err := trace.NewWriter(f)
		if err != nil {
			fail(err)
		}
		w.Run(tw, *instr)
		if err := tw.Close(); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d events of %s to %s\n", tw.Events(), *name, *record)
		return
	}

	if *programs != "" {
		stopProfiles, err := startProfiles(*cpuprof, *memprof)
		if err != nil {
			fail(err)
		}
		if err := runMulti(os.Stdout, reg, *programs, p, *jsonOut); err != nil {
			stopProfiles()
			fail(err)
		}
		if err := stopProfiles(); err != nil {
			fail(err)
		}
		return
	}

	if *sample {
		sp := sampleParams{
			Interval: *sampleInterval,
			Clusters: *sampleClusters,
			Seed:     *sampleSeed,
			Warmup:   *sampleWarmup,
			Verify:   *sampleVerify,
		}
		if err := sp.validate(); err != nil {
			fail(err)
		}
		stopProfiles, err := startProfiles(*cpuprof, *memprof)
		if err != nil {
			fail(err)
		}
		if err := runSample(os.Stdout, reg, p, sp, *jsonOut); err != nil {
			stopProfiles()
			fail(err)
		}
		if err := stopProfiles(); err != nil {
			fail(err)
		}
		return
	}

	// First SIGINT requests a graceful stop (checkpoint + partial
	// report); a second one falls through to the default handler.
	var stop atomic.Bool
	p.stop = &stop
	watchInterrupt(&stop)

	stopProfiles, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}

	var live *telhttp.Live
	if *metrics != "" {
		l, addr, err := serveMetrics(*metrics)
		if err != nil {
			fail(err)
		}
		live = l
		p.live = live
		fmt.Fprintf(os.Stderr, "emsim: serving metrics on http://%s/\n", addr)
	}

	res, err := run(&p)
	if err != nil {
		stopProfiles()
		fail(err)
	}
	if *timeline != "" {
		if err := writeTimeline(*timeline, res.Timeline, res.TimelineDropped); err != nil {
			fail(err)
		}
		if res.TimelineDropped > 0 {
			fmt.Fprintf(os.Stderr, "emsim: timeline ring cap dropped the oldest %d rows (see the JSONL footer); raise -interval to keep the whole run\n", res.TimelineDropped)
		}
	}
	if *jsonOut {
		if err := writeRunJSON(os.Stdout, p, res); err != nil {
			fail(err)
		}
	} else {
		printReport(p, res)
	}
	// os.Exit skips deferred calls, so the profiles are flushed and the
	// metrics listener closed explicitly before any exit path below.
	if err := stopProfiles(); err != nil {
		fail(err)
	}
	if live != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := live.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "emsim: closing metrics endpoint: %v\n", err)
		}
	}
	if res.Interrupted {
		os.Exit(130) // conventional exit code for signal-terminated work
	}
}

// writeRunJSON prints the machine-readable result: the same encoder and
// shape the emsimd service serves, which is what makes `emsim -json`
// output byte-comparable with a /run response for the same parameters.
func writeRunJSON(w io.Writer, p runParams, res *runResult) error {
	out := report.RunResultJSON{
		Workload:  p.Workload,
		Replay:    p.Replay,
		Instr:     p.Instr,
		Cores:     p.Cores,
		Policy:    p.Policy,   // normalized: "" for the Michaud default
		Topology:  p.Topology, // normalized: "" for the uniform chip
		Events:    res.Events,
		Normal:    res.Normal,
		Migration: res.Mig,
	}
	if p.Replay != "" {
		out.Workload = "" // trace-driven: the workload flag played no part
	}
	return report.WriteRunJSON(w, out)
}

// startProfiles arms the requested pprof outputs and returns the
// function that flushes them: it stops the CPU profile and writes the
// heap profile (after a GC, so the numbers reflect live steady-state
// memory rather than collectible garbage).
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			ioutilx.CloseKeeping(&err, f)
			return nil, err
		}
		cpuFile = f
	}
	var done bool
	return func() (err error) {
		if done {
			return nil
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			ioutilx.CloseKeeping(&err, cpuFile)
			if err != nil {
				return err
			}
		}
		if memPath != "" {
			f, ferr := os.Create(memPath)
			if ferr != nil {
				return ferr
			}
			defer ioutilx.CloseKeeping(&err, f)
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				return werr
			}
		}
		return nil
	}, nil
}

// watchInterrupt arms the shared graceful-stop handler: the first
// SIGINT or SIGTERM sets stop (the run aborts at the next event
// boundary, writing a resumable checkpoint when -checkpoint is set),
// then unregisters so a second signal terminates the process the
// default way.
func watchInterrupt(stop *atomic.Bool) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		stop.Store(true)
		signal.Stop(sigc)
		fmt.Fprintf(os.Stderr, "emsim: %v received, stopping at next event (signal again to kill)\n", sig)
	}()
}

// printReport prints the event-count comparison. For an interrupted run
// it is the partial report over the events consumed so far.
func printReport(p runParams, res *runResult) {
	normal, mig := res.Normal, res.Mig

	switch {
	case res.Interrupted && p.Checkpoint != "":
		fmt.Printf("INTERRUPTED after %d events — checkpoint saved to %s; resume with -resume %s\n\n",
			res.Events, p.Checkpoint, p.Checkpoint)
	case res.Interrupted:
		fmt.Printf("INTERRUPTED after %d events — partial results (no -checkpoint given, not resumable)\n\n", res.Events)
	}
	if res.Resumed > 0 {
		fmt.Printf("resumed from %s at event %d\n\n", p.Resume, res.Resumed)
	}

	source := p.Workload
	if p.Replay != "" {
		source = "trace " + p.Replay
	}
	fmt.Printf("workload %s, %d instructions\n", source, mig.Instructions)
	if p.Policy != "" || p.Topology != "" {
		pol, topo := p.Policy, p.Topology
		if pol == "" {
			pol = migration.PolicyMichaud
		}
		if topo == "" {
			topo = migration.TopologyUniform
		}
		fmt.Printf("policy %s, topology %s\n", pol, topo)
	}
	fmt.Println()
	t := stats.NewTable("metric", "1-core", fmt.Sprintf("%d-core+migration", p.Cores))
	row := func(label string, a, b uint64) { t.AddRow(label, fmt.Sprint(a), fmt.Sprint(b)) }
	row("instructions", normal.Instructions, mig.Instructions)
	row("ifetches", normal.IFetches, mig.IFetches)
	row("loads", normal.Loads, mig.Loads)
	row("stores", normal.Stores, mig.Stores)
	row("IL1 misses", normal.IL1Misses, mig.IL1Misses)
	row("DL1 misses", normal.DL1Misses, mig.DL1Misses)
	row("L2 hits", normal.L2Hits, mig.L2Hits)
	row("L2 hits after migration", normal.L2HitsAfterMigration, mig.L2HitsAfterMigration)
	row("L2 misses", normal.L2Misses, mig.L2Misses)
	row("L2-to-L2 forwards", normal.L2ToL2, mig.L2ToL2)
	row("L3 writebacks", normal.L3Writebacks, mig.L3Writebacks)
	row("write-through L2 allocs", normal.WriteThroughL2Misses, mig.WriteThroughL2Misses)
	row("migrations", normal.Migrations, mig.Migrations)
	row("update-bus bytes", normal.UpdateBusBytes, mig.UpdateBusBytes)
	row("L1 broadcast bytes", normal.L1BroadcastBytes, mig.L1BroadcastBytes)
	if mig.AffinityTableDropped > 0 {
		row("affinity entries dropped", normal.AffinityTableDropped, mig.AffinityTableDropped)
	}
	fmt.Println(t.String())

	fmt.Printf("instructions per L1 miss:    %s\n", stats.PerEvent(mig.Instructions, mig.L1Misses()))
	fmt.Printf("instructions per L2 miss:    %s (1-core), %s (%d-core)\n",
		stats.PerEvent(normal.Instructions, normal.L2Misses),
		stats.PerEvent(mig.Instructions, mig.L2Misses), p.Cores)
	fmt.Printf("instructions per migration:  %s\n", stats.PerEvent(mig.Instructions, mig.Migrations))

	if normal.Instructions == 0 || mig.Instructions == 0 {
		return
	}
	nRate := float64(normal.L2Misses) / float64(normal.Instructions)
	mRate := float64(mig.L2Misses) / float64(mig.Instructions)
	fmt.Printf("L2 miss ratio (%dxL2 / L2):   %s  (<1 means migration removed misses)\n", p.Cores, stats.Ratio(mRate, nRate))

	if be, ok := migration.MissesRemovedPerMigration(normal.Outcome(), mig.Outcome()); ok {
		fmt.Printf("break-even Pmig:             %.1f  (migration wins while Pmig below this)\n", be)
		tm := migration.DefaultTimeModel()
		fmt.Println("\nspeedup vs Pmig (time model: CPI0=1, L3 penalty=20 cycles):")
		for _, pmig := range []float64{1, 2, 5, 10, 20, 50, 100} {
			fmt.Printf("  Pmig=%-4.0f speedup %.3f\n", pmig, tm.Speedup(normal.Outcome(), mig.Outcome(), pmig))
		}
	} else {
		fmt.Println("no migrations occurred")
	}
}
