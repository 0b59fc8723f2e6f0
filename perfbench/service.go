package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// The service workload: a closed loop of svcClients clients against an
// in-process emsimd (service.New + Handler behind httptest, with a
// store directory), in four phases per pass — cold /run, one cold
// /sweep, memory-cache hits, and store hits from a restarted service.
const (
	svcProgram        = "179.art"
	svcClients        = 2
	svcColdSpecs      = 8    // distinct cold /run budgets per pass
	svcHitsPerClient  = 3000 // memory hits per client per pass
	svcStorePerClient = 3000 // store hits per client per pass
)

// svcSweep is the pass's /sweep: the default working-set sizes with
// reduced laps.
var svcSweep = service.SweepSpec{Sizes: report.DefaultSweepSizes(), Laps: 4, Cores: 4}

// svcBudgets draws the pass's distinct cold /run budgets from the seed:
// 9.6M to 10.4M instructions in 10k steps, so every seed does nearly
// the same work but different seeds hit different content addresses.
func svcBudgets(seed uint64) []uint64 {
	st := seed
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < svcColdSpecs {
		v := 9_600_000 + (splitmix64(&st)%81)*10_000
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// svcClient is a keep-alive HTTP client sized for the closed loop.
func svcClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients, MaxConnsPerHost: svcClients}}
}

// reply is one finished request.
type reply struct {
	status  int
	cache   string
	body    []byte
	latency time.Duration
}

func post(c *http.Client, url string, v any) (reply, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get(service.CacheHeader), body: out, latency: lat}, nil
}

// svcInstance is one running in-process emsimd.
type svcInstance struct {
	svc *service.Service
	srv *httptest.Server
}

// startService opens the store directory, builds the service and waits
// until it reports ready: the service's set-up. cacheEntries is the
// service's memory-cache size (0 = default, negative = disabled).
func startService(dir string, cacheEntries int) (*svcInstance, error) {
	st, err := store.Open(dir, store.Options{}) // emsimd's default durability
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: svcClients, Store: st, CacheEntries: cacheEntries})
	srv := httptest.NewServer(svc.Handler())
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		srv.Close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is not inspected
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("service not ready: %s", resp.Status)
	}
	return &svcInstance{svc: svc, srv: srv}, nil
}

// svcSamples accumulates one run's latencies across passes.
type svcSamples struct {
	setupEmpty, setupRestart []float64 // s
	cold, coldPerInstr       []float64 // ms, ns/instr
	sweep                    []float64 // ms
	hit, storeHit            []float64 // µs
	passWall, passCPU        []float64 // s
}

// svcRun is the state of one service workload run.
type svcRun struct {
	b       *bench
	budgets []uint64
	cli     []byte // emsim -json bytes for budgets[0]
	passes  int
	s       svcSamples
}

func newSvcRun(b *bench) (*svcRun, error) {
	r := &svcRun{b: b, budgets: svcBudgets(b.seed)}
	out, err := execEmsim(b.emsim, []string{"-workload", svcProgram, "-instr", fmt.Sprint(r.budgets[0]), "-json", "-j", "1"})
	if err != nil {
		return nil, err
	}
	r.cli = out.out
	return r, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clients runs f for each client concurrently and returns the first
// error.
func clients(f func(c int) error) error {
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass runs the four phases once against a fresh store directory.
func (r *svcRun) pass(parent int) error {
	b := r.b
	dir := filepath.Join(b.outDir, fmt.Sprintf("service-store-%d", r.passes))
	r.passes++
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cpu0 := processCPU()
	start := time.Now()
	hc := svcClient()
	defer hc.CloseIdleConnections()
	var mu sync.Mutex // guards the sample slices across client goroutines

	// Set-up on an empty store.
	var inst *svcInstance
	d, err := b.tr.timed("service.setup(empty store)", parent, func(int) (err error) {
		inst, err = startService(dir, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.s.setupEmpty = append(r.s.setupEmpty, seconds(d))

	// Phase 1: cold /run, each client its share of the budgets.
	cold := make([][]byte, len(r.budgets))
	phase := b.tr.begin("phase cold /run", parent)
	err = clients(func(c int) error {
		for i := c; i < len(r.budgets); i += svcClients {
			id := b.tr.begin("POST /run cold", phase)
			rep, err := post(hc, inst.srv.URL+"/run", service.RunRequest{RunSpec: service.RunSpec{Workload: svcProgram, Instr: r.budgets[i]}})
			b.tr.end(id)
			if err != nil {
				return err
			}
			var v struct {
				Workload string `json:"workload"`
				Instr    uint64 `json:"instr"`
			}
			ok := rep.status == http.StatusOK && rep.cache == "miss" &&
				json.Unmarshal(rep.body, &v) == nil && v.Workload == svcProgram && v.Instr == r.budgets[i]
			if i == 0 {
				ok = ok && bytes.Equal(rep.body, r.cli)
			}
			mu.Lock()
			b.check(ok, "cold /run instr=%d: status %d cache %q (cli bytes equal: %v)", r.budgets[i], rep.status, rep.cache, bytes.Equal(rep.body, r.cli))
			cold[i] = rep.body
			r.s.cold = append(r.s.cold, ms(rep.latency))
			r.s.coldPerInstr = append(r.s.coldPerInstr, float64(rep.latency.Nanoseconds())/float64(r.budgets[i]))
			mu.Unlock()
		}
		return nil
	})
	b.tr.end(phase)
	if err != nil {
		return err
	}

	// Phase 2: one cold /sweep.
	phase = b.tr.begin("phase cold /sweep", parent)
	rep, err := post(hc, inst.srv.URL+"/sweep", service.SweepRequest{SweepSpec: svcSweep})
	b.tr.end(phase)
	if err != nil {
		return err
	}
	var sw report.SweepResultJSON
	b.check(rep.status == http.StatusOK && rep.cache == "miss" && json.Unmarshal(rep.body, &sw) == nil && len(sw.Points) == len(svcSweep.Sizes),
		"cold /sweep: status %d cache %q", rep.status, rep.cache)
	r.s.sweep = append(r.s.sweep, ms(rep.latency))

	// Phase 3: memory-cache hits over every cold spec.
	phase = b.tr.begin("phase memory hits", parent)
	err = r.hits(hc, inst.srv.URL, svcHitsPerClient, cold, &r.s.hit, &mu, phase)
	b.tr.end(phase)
	inst.srv.Close()
	if err != nil {
		return err
	}

	// Phase 4: a fresh service over the same store directory with its
	// memory cache disabled, so every request is served from the store
	// (checked against the store-hit counter below).
	d, err = b.tr.timed("service.setup(restart on store)", parent, func(int) (err error) {
		inst, err = startService(dir, -1)
		return err
	})
	if err != nil {
		return err
	}
	r.s.setupRestart = append(r.s.setupRestart, seconds(d))
	phase = b.tr.begin("phase store hits", parent)
	err = r.hits(hc, inst.srv.URL, svcStorePerClient, cold, &r.s.storeHit, &mu, phase)
	b.tr.end(phase)
	inst.srv.Close()
	if err != nil {
		return err
	}
	got := inst.svc.Metrics().StoreHits.Value()
	b.check(got == svcClients*svcStorePerClient, "store phase: %d store hits, want %d", got, svcClients*svcStorePerClient)

	r.s.passWall = append(r.s.passWall, seconds(time.Since(start)))
	r.s.passCPU = append(r.s.passCPU, seconds(processCPU()-cpu0))
	return nil
}

// hits sends n cached /run requests per client, each client cycling
// over every cold spec. Every body must equal the cold body.
func (r *svcRun) hits(hc *http.Client, url string, n int, cold [][]byte, into *[]float64, mu *sync.Mutex, parent int) error {
	return clients(func(c int) error {
		lat := make([]float64, 0, n)
		bad := 0
		for i := 0; i < n; i++ {
			k := (i + c) % len(r.budgets)
			id := r.b.tr.begin("POST /run hit", parent)
			rep, err := post(hc, url+"/run", service.RunRequest{RunSpec: service.RunSpec{Workload: svcProgram, Instr: r.budgets[k]}})
			r.b.tr.end(id)
			if err != nil {
				return err
			}
			if rep.status != http.StatusOK || rep.cache != "hit" || !bytes.Equal(rep.body, cold[k]) {
				bad++
			}
			lat = append(lat, us(rep.latency))
		}
		mu.Lock()
		defer mu.Unlock()
		r.b.count(n, bad, "cached /run: %d of %d were non-200, a miss, or bytes differing from the cold result", bad, n)
		*into = append(*into, lat...)
		return nil
	})
}

// loop runs passes until budget is spent and at least minPasses have run.
func (r *svcRun) loop(budget time.Duration, parent, minPasses int) error {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		id := r.b.tr.begin("service pass", parent)
		err := r.pass(id)
		r.b.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// ledger prints the per-class latencies the pass wall is made of.
func (r *svcRun) ledger() {
	s := r.s
	note("%d passes; pass wall median %.4f s (spread %.3f), cpu median %.4f s; walls %.3f", len(s.passWall), median(s.passWall), spread(s.passWall), median(s.passCPU), s.passWall)
	note("set-up: empty store %.2f ms, restart on store %.2f ms (medians of %d)", median(s.setupEmpty)*1e3, median(s.setupRestart)*1e3, len(s.setupRestart))
	note("cold_run_p50_ms %.3f ms (n=%d, %s, budgets %v)", median(s.cold), len(s.cold), svcProgram, r.budgets)
	note("sweep_ms %.3f ms (n=%d, %d sizes, laps %d)", median(s.sweep), len(s.sweep), len(svcSweep.Sizes), svcSweep.Laps)
	tp := tailPercentile(len(s.hit))
	note("hit_p50_us %.1f us, hit_p%.0f_us %.1f us (n=%d)", median(s.hit), tp, percentile(s.hit, tp), len(s.hit))
	tp = tailPercentile(len(s.storeHit))
	note("store_hit_p50_us %.1f us, store_hit_p%.0f_us %.1f us (n=%d)", median(s.storeHit), tp, percentile(s.storeHit, tp), len(s.storeHit))
}

func serviceEndToEnd(b *bench) error {
	r, err := newSvcRun(b)
	if err != nil {
		return err
	}
	if err := r.loop(b.seconds, -1, 3); err != nil {
		return err
	}
	r.ledger()
	b.set("setup_s", "s", median(r.s.setupRestart))
	b.set("wall_s", "s", median(r.s.passWall))
	b.set("cpu_s", "s", median(r.s.passCPU))
	b.set("ns_per_instr", "ns", median(r.s.coldPerInstr))
	b.set("peak_rss_mb", "MB", processPeakRSSMB())
	return nil
}

// serviceLayers is the service workload's traced run: passes alternate
// untraced and traced for the tracing overhead, then the layers are
// measured on the service's program and the pass is reconciled.
func serviceLayers(b *bench) error {
	r, err := newSvcRun(b)
	if err != nil {
		return err
	}
	var plain, traced []float64
	start := time.Now()
	for i := 0; len(plain) < 2 || len(traced) < 2 || time.Since(start) < b.seconds; i++ {
		b.tr.on = i%2 == 1
		if err := r.loop(0, -1, 1); err != nil {
			return err
		}
		w := r.s.passWall[len(r.s.passWall)-1]
		if b.tr.on {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	b.tr.on = true
	r.ledger()
	wall := median(plain)
	b.set("trace.wall_ratio", "ratio", median(traced)/wall)
	note("tracing overhead: traced − untraced pass wall = %+.4f s", median(traced)-wall)

	instr := uint64(10_000_000)
	root := b.tr.begin("layer ledger service", -1)
	lt, err := layerLedger(b, svcProgram, instr, false, root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	var budgetSum uint64
	for _, v := range r.budgets {
		budgetSum += v
	}
	perInstr := float64(lt.coldInproc) / float64(instr)
	// Each client's hits are sequential HTTP hits; a store hit is an HTTP
	// hit with the memory lookup replaced by a store read.
	httpShare := lt.hitHTTP - lt.hitInproc
	predicted := time.Duration(perInstr*float64(budgetSum))/svcClients + lt.sweep +
		time.Duration(svcHitsPerClient)*lt.hitHTTP + time.Duration(svcStorePerClient)*(httpShare+lt.storeGet) +
		time.Duration(median(r.s.setupEmpty)*1e9) + time.Duration(median(r.s.setupRestart)*1e9)
	reconcile(b, "pass wall ≈ cold runs/clients + sweep + HTTP hits + HTTP store hits + set-ups", predicted.Seconds(), wall,
		"two clients and their server goroutines contending for the CPUs, and HTTP on the cold and sweep requests")
	return nil
}
