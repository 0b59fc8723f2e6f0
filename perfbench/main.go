// Command perfbench is the repository benchmark: it times what people
// run (the emsim CLI on real workloads, a sampled run, and emsimd
// serving /run and /sweep) from outside, checks every output, and in a
// separate traced run re-drives each workload's recorded event stream
// through each layer's public functions to attribute the time.
//
// Run it through run.sh, which builds emsim and this program from the
// checkout first:
//
//	bash perfbench/run.sh --workload em3d --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with every end-to-end metric of BENCHMARK.json when --trace is 0 and
// every per-layer metric when it is 1. The lines before it are the
// human-readable ledger. README.md describes the workloads, metrics and
// the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings and accumulates its outcome.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	emsim   string // path to the emsim binary under test
	outDir  string // scratch + history directory inside the checkout

	tr        *tracer
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string
}

// check counts one operation; a false ok counts it as failed and
// explains why on stderr.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
	return ok
}

// count counts n operations of which bad failed.
func (b *bench) count(n, bad int, format string, args ...any) {
	b.attempted += n
	b.failed += bad
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

// set records a reported metric (printed in the ledger as it is set).
func (b *bench) set(name, unit string, v float64) {
	if _, dup := b.metrics[name]; !dup {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-36s %14.6g %s\n", name, v, unit)
}

// note prints an informational ledger line that is not a gated metric.
func note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
		seed     = flag.Uint64("seed", 1, "workload seed (drives every generated input)")
		seconds  = flag.Int("seconds", 20, "measurement time of one run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		emsim    = flag.String("emsim", "", "path to the emsim binary built from this checkout (required)")
		outDir   = flag.String("out", "", "directory for span JSONL and the result history (required)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn, *emsim, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, traceOn int, emsim, outDir string) error {
	wl, ok := workloadByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames())
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if emsim == "" || outDir == "" {
		return fmt.Errorf("-emsim and -out are required (run through run.sh)")
	}
	if _, err := os.Stat(emsim); err != nil {
		return fmt.Errorf("emsim binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b := &bench{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		traced:  traceOn == 1,
		emsim:   emsim,
		outDir:  outDir,
		metrics: map[string]metric{},
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", workload, seed, traceOn, time.Now().UnixNano())
	b.tr = newTracer(runID, b.traced)

	host := stampHost(seed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, traceOn)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q calibration_ns=%.4f\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.CalibrationNS)

	var err error
	if b.traced {
		err = wl.layers(b)
	} else {
		err = wl.endToEnd(b)
	}
	if err != nil {
		return err
	}

	if b.traced {
		path := filepath.Join(outDir, runID+".spans.jsonl")
		if err := b.tr.writeJSONL(path); err != nil {
			return err
		}
		b.tr.printSelfTimes()
		note("spans: %s (%d spans)", path, b.tr.len())
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	note("error_rate %.6f (%d failed of %d attempted)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	if err := recordHistory(outDir, host, workload, traceOn, b.metrics, b.order); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
