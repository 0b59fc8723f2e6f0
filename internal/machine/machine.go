// Package machine implements the paper's multi-core machine model (§2):
// per-core IL1/DL1 and L2 caches, a shared L3 (modelled as infinite —
// the paper counts L2 misses and treats L2-to-L2 misses and L3 hits
// alike), the migration-mode coherence protocol of §2.1 (modified-bit
// discipline with an update bus keeping inactive copies valid), L1
// mirroring (§2.3), and the migration controller hookup with L2
// filtering (§3.4).
//
// The model is trace-driven and event-counting, like the paper's
// simulator: it implements mem.Sink, consumes a workload's reference
// stream, and reports the event counts behind Tables 1 and 2.
package machine

import (
	"fmt"

	"repro/internal/affinity"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// Config describes a machine.
type Config struct {
	// Cores is the number of cores (paper: 4 in migration mode; a
	// 1-core machine is the "normal" baseline).
	Cores int
	// LineShift is log2 of the cache-line size (paper: 6).
	LineShift uint
	// IL1 and DL1 are the per-core L1 organisations (paper: 16 KB,
	// 4-way). L1 content is mirrored across cores (§2.3), so one
	// physical copy is simulated.
	IL1, DL1 cache.Geometry
	// L2 is the per-core L2 organisation (paper: 512 KB, 4-way
	// skewed-associative).
	L2 cache.Geometry
	// Migration, when non-nil, enables migration mode with this
	// controller configuration. The controller's Ways must equal Cores.
	Migration *migration.Config
	// Policy names the migration policy driving the machine ("" or
	// "michaud" selects the paper's affinity controller; see
	// migration.PolicyNames for the registry). Only meaningful with
	// Migration set.
	Policy string
	// Topology, when non-nil, is the core-distance matrix handed to
	// distance-aware policies (nil = the paper's uniform chip). Only
	// meaningful with Migration set.
	Topology *migration.Topology
	// L3, when non-nil, models a finite shared L3 behind the L2s
	// (write-back); L3 misses count as memory accesses. When nil the L3
	// is infinite, as the paper assumes (it never reports L3 misses).
	L3 *cache.Geometry
	// Prefetch, when non-nil, attaches a stream prefetcher to the L2
	// miss stream (prefetches land in the active core's L2) — the
	// substrate for the §6 prefetching-interaction study.
	Prefetch *prefetch.Config
	// BroadcastThreshold, when positive (0 < t ≤ 1), enables §6's
	// update-bus bandwidth optimisation: register updates are broadcast
	// only while some deciding transition filter is within t of a sign
	// change (a possible migration); otherwise they are coalesced in a
	// register-update cache whose content (RegisterSpillBytes) is
	// spilled on each migration.
	BroadcastThreshold float64
	// CountWriteThroughL2Misses includes L2 write-allocations triggered
	// by DL1-hit stores (§2.1's "write allocation in L2 may be triggered
	// even upon DL1 hits") in the headline L2-miss count. The paper's
	// counts are trace-driven from L1-miss requests, so the default
	// (false) reports them separately in Stats.WriteThroughL2Misses.
	CountWriteThroughL2Misses bool
}

// PaperL1 returns the paper's 16 KB 4-way L1 geometry.
func PaperL1() cache.Geometry { return cache.GeometryFor(16<<10, 6, 4, false) }

// PaperL2 returns the paper's 512 KB 4-way skewed-associative L2.
func PaperL2() cache.Geometry { return cache.GeometryFor(512<<10, 6, 4, true) }

// NormalConfig returns the 1-core baseline machine of Table 2's "L2
// miss" column.
func NormalConfig() Config {
	return Config{Cores: 1, LineShift: 6, IL1: PaperL1(), DL1: PaperL1(), L2: PaperL2()}
}

// MigrationConfig returns the paper's 4-core migration-mode machine of
// Table 2's "4xL2 miss" column.
func MigrationConfig() Config { return MigrationConfigN(4) }

// MigrationConfigN returns a Table2-style migration-mode machine with 2,
// 4 or 8 cores (§6: the scheme "works also on 2-core configurations"
// and extends to more). It panics on any other core count: front ends
// validate user-supplied counts before calling (see cmd/emsim), so a
// bad argument here is an internal invariant violation.
func MigrationConfigN(cores int) Config {
	cfg, err := MigrationConfigFor(cores)
	if err != nil {
		//emlint:allowpanic documented contract: front ends validate core counts; use MigrationConfigFor for user input
		panic(err)
	}
	return cfg
}

// MigrationConfigFor is MigrationConfigN returning an error instead of
// panicking, for user-supplied core counts (the experiment drivers
// validate one configuration up front and thread it through all jobs).
func MigrationConfigFor(cores int) (Config, error) {
	mc, err := migration.ConfigForCores(cores)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Cores: cores, LineShift: 6,
		IL1: PaperL1(), DL1: PaperL1(), L2: PaperL2(),
		Migration: &mc,
	}, nil
}

// MigrationConfigScenario is MigrationConfigFor extended with a policy
// and topology selection, the front ends' single entry point for
// -policy/-topology flags. Default spellings normalise away — policy
// "michaud" to "" and topology "uniform" to nil — so a run that names
// the defaults explicitly is configuration-identical (and therefore
// output- and checkpoint-byte-identical) to one that names nothing.
func MigrationConfigScenario(cores int, policy, topology string) (Config, error) {
	cfg, err := MigrationConfigFor(cores)
	if err != nil {
		return Config{}, err
	}
	if policy == migration.PolicyMichaud {
		policy = ""
	}
	if !migration.ValidPolicy(policy) {
		return Config{}, fmt.Errorf("machine: unknown policy %q (have %v)", policy, migration.PolicyNames())
	}
	cfg.Policy = policy
	if topology != "" && topology != migration.TopologyUniform {
		topo, err := migration.NewTopology(topology, cores)
		if err != nil {
			return Config{}, fmt.Errorf("machine: %w", err)
		}
		cfg.Topology = topo
	} else if !migration.ValidTopology(topology) {
		return Config{}, fmt.Errorf("machine: unknown topology %q (have %v)", topology, migration.TopologyNames())
	}
	return cfg, nil
}

// Stats are the event counts the machine accumulates. All counts are
// events, not cycles; Table 2 reports instructions-per-event.
type Stats struct {
	Instructions uint64
	IFetches     uint64
	Loads        uint64
	Stores       uint64

	// IL1Misses and DL1Misses count L1-miss requests (the stream the
	// migration controller monitors). Store misses count toward
	// DL1Misses (non-write-allocate: no DL1 fill).
	IL1Misses, DL1Misses uint64

	// L2Hits counts active-L2 hits; L2HitsAfterMigration counts the
	// subset that hit only because the request migrated.
	L2Hits               uint64
	L2HitsAfterMigration uint64
	// L2Misses counts requests that had to fetch from beyond the active
	// L2 (L2-to-L2 or L3 — the paper does not distinguish, §2.1).
	L2Misses uint64
	// L2ToL2 counts fetches satisfied by a modified remote copy
	// (forwarded and simultaneously written back, §2.1).
	L2ToL2 uint64
	// L3Writebacks counts modified lines written back to L3 (evictions
	// + forward-writebacks).
	L3Writebacks uint64
	// WriteThroughL2Misses counts L2 write-allocations from DL1-hit
	// stores when CountWriteThroughL2Misses is false.
	WriteThroughL2Misses uint64

	Migrations uint64

	// L3Hits/L3Misses/MemWritebacks are populated only with a finite L3
	// configured: L2 misses that hit/missed the shared L3, and modified
	// L3 victims written to memory.
	L3Hits, L3Misses, MemWritebacks uint64

	// PrefetchIssued/PrefetchUseful are populated only with a
	// prefetcher configured: lines inserted ahead of demand, and the
	// subset later hit by a demand request before eviction.
	PrefetchIssued, PrefetchUseful uint64

	// UpdateBusBytes approximates §2.3's update-bus traffic: ~9 bytes
	// per retired instruction (register ids + values amortised) plus 16
	// bytes per store (address + value). With BroadcastThreshold set,
	// register bytes are counted only near potential migrations, plus
	// RegisterSpillBytes per migration (§6's optimisation).
	UpdateBusBytes uint64
	// SuppressedRegBytes counts register-update bytes the §6 threshold
	// gating kept off the bus.
	SuppressedRegBytes uint64
	// L1BroadcastBytes counts line broadcasts to inactive L1s (§2.3):
	// one line per L1 fill.
	L1BroadcastBytes uint64

	// AffinityTableDropped counts affinity-table entries evicted by the
	// unbounded table's memory cap (migration.Config.TableLimit).
	// Populated by FinalStats; zero while the run is in flight.
	AffinityTableDropped uint64
}

// PerInstr returns instructions per event, the paper's Table 2 metric
// (higher is better). Returns +Inf-like large value as 0-guard: when the
// event never occurred it returns 0 and false.
func (s Stats) PerInstr(events uint64) (float64, bool) {
	if events == 0 {
		return 0, false
	}
	return float64(s.Instructions) / float64(events), true
}

// L1Misses returns the combined L1-miss request count.
func (s Stats) L1Misses() uint64 { return s.IL1Misses + s.DL1Misses }

// Outcome converts the stats into the migration package's normalised
// form.
func (s Stats) Outcome() migration.Outcome {
	return migration.Outcome{
		Instructions: s.Instructions,
		L2Misses:     s.L2Misses,
		Migrations:   s.Migrations,
	}
}

// Metric names registered by every Machine. The first group mirrors
// the headline Stats fields; the controller group exists only in
// migration mode. Keeping the names exported lets front ends and tests
// address timeline/snapshot entries without string literals.
const (
	MetricInstructions = "instructions"
	MetricRefs         = "refs"
	MetricIL1Misses    = "il1_misses"
	MetricDL1Misses    = "dl1_misses"
	MetricL2Hits       = "l2_hits"
	MetricL2Misses     = "l2_misses"
	MetricMigrations   = "migrations"

	MetricCtrlRequests      = "ctrl_requests"
	MetricCtrlFilterUpdates = "ctrl_filter_updates"
	// MetricMigrationsDeferred counts migrations a distance-aware policy
	// wanted but withheld; registered only for such policies.
	MetricMigrationsDeferred = "migrations_deferred"
	MetricAffinityHits       = "affinity_hits"
	MetricAffinityMisses     = "affinity_misses"
	MetricAffinityEvictions  = "affinity_evictions"
	// MetricMigrationGap is a histogram: per migration, the number of
	// L1-miss requests since the previous migration (bucket i>0 holds
	// gaps in [2^(i-1), 2^i)).
	MetricMigrationGap = "migration_gap"
)

// probes are the machine's own telemetry handles, mirroring the subset
// of Stats the timeline tracks per interval.
type probes struct {
	instructions telemetry.Counter
	refs         telemetry.Counter
	il1Misses    telemetry.Counter
	dl1Misses    telemetry.Counter
	l2Hits       telemetry.Counter
	l2Misses     telemetry.Counter
	migrations   telemetry.Counter
}

// Machine is the simulated multi-core. It implements mem.Sink.
type Machine struct {
	cfg Config
	il1 *cache.SetAssoc // mirrored across cores: one physical copy
	dl1 *cache.SetAssoc
	l2  []*cache.SetAssoc
	l3  *cache.SetAssoc // nil = infinite L3 (the paper's assumption)
	pf  *prefetch.Prefetcher
	// stage filters AccessBatch deliveries through il1/dl1 (its own
	// caches). Nil once the machine is attached to a FanOut, whose shared
	// stage il1/dl1 then point into.
	//emlint:nosnapshot the stage's caches are il1/dl1, which Snapshot captures
	stage *l1Stage
	//emlint:nosnapshot per-batch scratch of AccessBatch, empty between calls
	fb filtered
	// pol is the migration policy (nil in normal mode). The default is
	// the paper's Michaud controller; see Config.Policy.
	//emlint:nosnapshot non-default policy state rides the EMCKPT1 extension via PolicyState/SetPolicyState; the Michaud default serialises through ctrl into Snapshot.Controller
	pol migration.Policy
	// ctrl devirtualizes pol when it is the Michaud controller: the
	// policy methods run once per L1 miss, and the concrete call keeps
	// the default configuration's hot path free of interface dispatch.
	// Nil under non-default policies, which pay the itab lookup.
	ctrl *migration.Controller

	tel *telemetry.Registry
	//emlint:nosnapshot observational handles into tel; values restore through Snapshot.Telemetry
	probes probes

	active int
	Stats  Stats
}

// Validate rejects malformed configurations: a bad core count or cache
// geometry. (Migration-controller problems surface in New, which
// actually constructs the controller.) Experiment drivers validate one
// configuration up front and thread it through all their jobs.
func (cfg Config) Validate() error {
	if cfg.Cores < 1 {
		return fmt.Errorf("machine: need at least one core, got %d", cfg.Cores)
	}
	for _, g := range []struct {
		name string
		geo  cache.Geometry
	}{{"IL1", cfg.IL1}, {"DL1", cfg.DL1}, {"L2", cfg.L2}} {
		if err := g.geo.Validate(); err != nil {
			return fmt.Errorf("machine: %s: %w", g.name, err)
		}
	}
	if cfg.L3 != nil {
		if err := cfg.L3.Validate(); err != nil {
			return fmt.Errorf("machine: L3: %w", err)
		}
	}
	if cfg.Migration == nil {
		if cfg.Policy != "" {
			return fmt.Errorf("machine: policy %q without migration mode", cfg.Policy)
		}
		if cfg.Topology != nil {
			return fmt.Errorf("machine: topology %q without migration mode", cfg.Topology.Name)
		}
	} else if !migration.ValidPolicy(cfg.Policy) {
		return fmt.Errorf("machine: unknown policy %q (have %v)", cfg.Policy, migration.PolicyNames())
	}
	return nil
}

// New builds a machine. Malformed configurations — a bad core count,
// geometry, or migration setup — come back as errors; MustNew wraps
// them in a panic for call sites with compile-time-constant
// configurations.
func New(cfg Config) (*Machine, error) {
	return newMachine(cfg, nil, nil)
}

// newMachine builds a machine over the given L2 complex and L3, or over
// fresh ones when l2 is nil (a Cluster hands programs 1..K-1 program 0's
// arrays instead of allocating private ones).
func newMachine(cfg Config, l2 []*cache.SetAssoc, l3 *cache.SetAssoc) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, stage: newL1Stage(cfg)}
	m.il1, m.dl1 = m.stage.il1, m.stage.dl1
	if l2 == nil {
		for i := 0; i < cfg.Cores; i++ {
			l2 = append(l2, cache.NewSetAssoc(cfg.L2))
		}
		if cfg.L3 != nil {
			l3 = cache.NewSetAssoc(*cfg.L3)
		}
	}
	m.l2, m.l3 = l2, l3
	if cfg.Prefetch != nil {
		m.pf = prefetch.New(*cfg.Prefetch)
	}
	if cfg.Migration != nil {
		pol, err := migration.NewPolicy(cfg.Policy, *cfg.Migration, cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.pol = pol
		m.ctrl, _ = pol.(*migration.Controller)
		if w := m.pol.Ways(); w != cfg.Cores {
			return nil, fmt.Errorf("machine: %d cores but a %d-way migration policy", cfg.Cores, w)
		}
	}
	m.tel = telemetry.NewRegistry()
	m.probes = probes{
		instructions: m.tel.MustCounter(MetricInstructions),
		refs:         m.tel.MustCounter(MetricRefs),
		il1Misses:    m.tel.MustCounter(MetricIL1Misses),
		dl1Misses:    m.tel.MustCounter(MetricDL1Misses),
		l2Hits:       m.tel.MustCounter(MetricL2Hits),
		l2Misses:     m.tel.MustCounter(MetricL2Misses),
		migrations:   m.tel.MustCounter(MetricMigrations),
	}
	if m.pol != nil {
		pr := migration.Probes{
			Requests:      m.tel.MustCounter(MetricCtrlRequests),
			L2MissUpdates: m.tel.MustCounter(MetricCtrlFilterUpdates),
			MigrationGap:  m.tel.MustHistogram(MetricMigrationGap),
			Table: affinity.TableProbes{
				Hits:      m.tel.MustCounter(MetricAffinityHits),
				Misses:    m.tel.MustCounter(MetricAffinityMisses),
				Evictions: m.tel.MustCounter(MetricAffinityEvictions),
			},
		}
		// The deferral counter exists only for policies that can defer
		// (keeps the default Michaud metric set — and hence checkpoint
		// telemetry snapshots — exactly as before the policy layer).
		if _, ok := m.pol.(*migration.NumaPolicy); ok {
			pr.Deferrals = m.tel.MustCounter(MetricMigrationsDeferred)
		}
		m.pol.SetProbes(pr)
	}
	return m, nil
}

// MustNew is New panicking on error, for constant configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// ActiveCore returns the core currently executing.
func (m *Machine) ActiveCore() int { return m.active }

// FinalStats returns the accumulated Stats with the end-of-run
// controller counters (affinity-table drops) folded in.
func (m *Machine) FinalStats() Stats {
	s := m.Stats
	if m.pol != nil {
		s.AffinityTableDropped = m.pol.TableDropped()
	}
	return s
}

// Policy returns the migration policy (nil in normal mode).
func (m *Machine) Policy() migration.Policy { return m.pol }

// Controller returns the Michaud migration controller, or nil when the
// machine runs in normal mode or under a different policy.
func (m *Machine) Controller() *migration.Controller { return m.ctrl }

// polOnRequest, polOnL2Miss and polNearMigration dispatch through the
// devirtualized Michaud pointer when the default policy runs; only
// non-default policies pay the interface call. Call only with a policy
// present. Small on purpose so they inline into the hot path.
func (m *Machine) polOnRequest(line mem.Line) (int, bool) {
	if m.ctrl != nil {
		return m.ctrl.OnRequest(line)
	}
	return m.pol.OnRequest(line)
}

func (m *Machine) polOnL2Miss(isPtrLoad bool) (int, bool) {
	if m.ctrl != nil {
		return m.ctrl.OnL2Miss(isPtrLoad)
	}
	return m.pol.OnL2Miss(isPtrLoad)
}

func (m *Machine) polNearMigration(frac float64) bool {
	if m.ctrl != nil {
		return m.ctrl.NearMigration(frac)
	}
	return m.pol.NearMigration(frac)
}

// WeightedMigrationCost returns the topology-weighted migration count:
// the sum of core distances over executed migrations for distance-aware
// policies, the raw migration count otherwise (every move costs 1 on
// the uniform chip). This is the `weighted` argument of
// migration.TimeModel.CyclesWeighted.
func (m *Machine) WeightedMigrationCost() float64 {
	if dw, ok := m.pol.(migration.DistanceWeighted); ok {
		return dw.WeightedMigrationCost()
	}
	return float64(m.Stats.Migrations)
}

// Telemetry returns the machine's metric registry. The registry is
// single-goroutine like the machine itself; cross-goroutine consumers
// take Snapshot copies.
func (m *Machine) Telemetry() *telemetry.Registry { return m.tel }

// RegisterSpillBytes is the §6 register-update-cache spill: the
// architectural register file (64 × 8 B values + identifiers).
const RegisterSpillBytes = 64*8 + 64

// Instr implements mem.Sink. It runs once per trace instruction batch.
//
//emlint:hotpath
func (m *Machine) Instr(n uint64) {
	m.Stats.Instructions += n
	m.probes.instructions.Add(n)
	if m.cfg.Migration == nil {
		return
	}
	if m.cfg.BroadcastThreshold > 0 && !m.polNearMigration(m.cfg.BroadcastThreshold) {
		m.Stats.SuppressedRegBytes += 9 * n
		return
	}
	m.Stats.UpdateBusBytes += 9 * n
}

// Access implements mem.Sink. It runs once per simulated memory
// reference and must stay allocation-free in steady state (see
// TestAccessSteadyStateZeroAllocs).
//
//emlint:hotpath
func (m *Machine) Access(addr mem.Addr, kind mem.Kind) {
	line := mem.LineOf(addr, m.cfg.LineShift)
	m.probes.refs.Inc()
	switch kind {
	case mem.IFetch:
		m.Stats.IFetches++
		if _, ok := m.il1.Probe(line); ok {
			return
		}
		m.Stats.IL1Misses++
		m.probes.il1Misses.Inc()
		m.request(line, false, false)
		m.fillL1(m.il1, line)
	case mem.Load, mem.PtrLoad:
		m.Stats.Loads++
		if _, ok := m.dl1.Probe(line); ok {
			return
		}
		m.Stats.DL1Misses++
		m.probes.dl1Misses.Inc()
		m.request(line, false, kind == mem.PtrLoad)
		m.fillL1(m.dl1, line)
	case mem.Store:
		m.Stats.Stores++
		if m.cfg.Migration != nil {
			m.Stats.UpdateBusBytes += 16
		}
		if _, ok := m.dl1.Probe(line); ok {
			// DL1 hit: write-through to the active L2 without an
			// L1-miss request (invisible to the controller).
			m.storeThrough(line)
			return
		}
		// DL1 miss: non-write-allocate — no DL1 fill, but the store is
		// an L1-miss request serviced by the L2.
		m.Stats.DL1Misses++
		m.probes.dl1Misses.Inc()
		m.request(line, true, false)
	}
}

// spillRegisters accounts the catch-up broadcast a migration requires
// when register updates were being suppressed (§6).
func (m *Machine) spillRegisters() {
	if m.cfg.BroadcastThreshold > 0 {
		m.Stats.UpdateBusBytes += RegisterSpillBytes
	}
}

// fillL1 inserts a line into an L1 after an L2/L3 fetch; the line is
// broadcast to the inactive L1 copies (§2.3), which we account but do
// not duplicate (contents are mirrored). The caller has just missed
// this L1 on the same line (through Probe) and nothing on the request
// path touches the L1s, so the line is guaranteed absent and the probed
// candidate frames are still the insertion candidates — InsertProbed
// reuses them instead of re-running the indexing.
//
//emlint:hotpath
func (m *Machine) fillL1(l1 *cache.SetAssoc, line mem.Line) {
	l1.InsertProbed(line, 0)
	if m.cfg.Migration != nil {
		m.Stats.L1BroadcastBytes += uint64(m.cfg.Cores-1) << m.cfg.LineShift
	}
}

// request services an L1-miss request (§2.2's controller-visible path).
// isStore marks write-allocate semantics: the fetched/hit line becomes
// modified on the active core and loses its modified bit elsewhere.
func (m *Machine) request(line mem.Line, isStore, isPtrLoad bool) {
	if m.pol != nil {
		if core, migrated := m.polOnRequest(line); migrated {
			// Only possible with NoL2Filtering (ablation): the filter
			// moved on the request itself.
			m.Stats.Migrations++
			m.probes.migrations.Inc()
			m.active = core
			m.spillRegisters()
		}
	}
	if h, ok := m.l2[m.active].Probe(line); ok {
		m.Stats.L2Hits++
		m.probes.l2Hits.Inc()
		m.notePrefetchHit(h)
		if isStore {
			m.markModified(h, line)
		}
		return
	}
	// Active-L2 miss: with L2 filtering the transition filter moves now,
	// and a migration may redirect the request (§3.4: "a migration can
	// happen only upon a L2 miss").
	if m.pol != nil {
		if core, migrated := m.polOnL2Miss(isPtrLoad); migrated {
			m.Stats.Migrations++
			m.probes.migrations.Inc()
			m.active = core
			m.spillRegisters()
			if h, ok := m.l2[m.active].Probe(line); ok {
				// The new active L2 holds the line: serviced locally
				// after the migration, no L3 access.
				m.Stats.L2Hits++
				m.probes.l2Hits.Inc()
				m.Stats.L2HitsAfterMigration++
				m.notePrefetchHit(h)
				if isStore {
					m.markModified(h, line)
				}
				return
			}
		}
	}
	m.Stats.L2Misses++
	m.probes.l2Misses.Inc()
	m.fetch(line, isStore)
	m.prefetchAfterMiss(line)
}

// notePrefetchHit converts a prefetched line into a useful one the
// first time a demand request touches it.
func (m *Machine) notePrefetchHit(h cache.Handle) {
	if m.pf == nil {
		return
	}
	l2 := m.l2[m.active]
	if f := l2.Flags(h); f&flagPrefetched != 0 {
		l2.SetFlags(h, f&^flagPrefetched)
		m.Stats.PrefetchUseful++
	}
}

// prefetchAfterMiss trains the stream prefetcher on the demand miss and
// inserts its predictions into the active L2.
func (m *Machine) prefetchAfterMiss(line mem.Line) {
	if m.pf == nil {
		return
	}
	for _, pl := range m.pf.OnMiss(line) {
		if _, ok := m.l2[m.active].Lookup(pl); ok {
			continue
		}
		m.Stats.PrefetchIssued++
		_, victim := m.l2[m.active].Insert(pl, flagPrefetched)
		if victim.Valid && victim.Flags&cache.FlagModified != 0 {
			m.Stats.L3Writebacks++
		}
	}
}

// storeThrough performs the write-through of a DL1-hit store: update the
// active L2 (allocating on miss — §2.1), set its modified bit, reset
// modified on inactive copies.
func (m *Machine) storeThrough(line mem.Line) {
	if h, ok := m.l2[m.active].Probe(line); ok {
		m.markModified(h, line)
		return
	}
	if m.cfg.CountWriteThroughL2Misses {
		m.Stats.L2Misses++
		m.probes.l2Misses.Inc()
	} else {
		m.Stats.WriteThroughL2Misses++
	}
	m.fetch(line, true)
}

// markModified sets the modified bit on the active core's copy and
// resets it on inactive copies (which remain valid — their content is
// refreshed over the update bus, §2.1).
func (m *Machine) markModified(h cache.Handle, line mem.Line) {
	m.l2[m.active].SetFlags(h, m.l2[m.active].Flags(h)|cache.FlagModified)
	for c, l2 := range m.l2 {
		if c == m.active {
			continue
		}
		if hh, ok := l2.Lookup(line); ok {
			l2.SetFlags(hh, l2.Flags(hh)&^cache.FlagModified)
		}
	}
}

// fetch brings a line into the active L2 from a modified remote copy
// (L2-to-L2, with simultaneous writeback) or from L3. Non-modified
// remote copies cannot be forwarded (§2.1) — the line is re-fetched
// from L3.
func (m *Machine) fetch(line mem.Line, isStore bool) {
	for c, l2 := range m.l2 {
		if c == m.active {
			continue
		}
		if h, ok := l2.Lookup(line); ok && l2.Flags(h)&cache.FlagModified != 0 {
			// forward + simultaneous writeback, reset modified
			l2.SetFlags(h, l2.Flags(h)&^cache.FlagModified)
			m.Stats.L2ToL2++
			m.Stats.L3Writebacks++
			break
		}
	}
	if m.l3 != nil {
		if _, ok := m.l3.Access(line); ok {
			m.Stats.L3Hits++
		} else {
			m.Stats.L3Misses++
			_, v3 := m.l3.Insert(line, 0)
			if v3.Valid && v3.Flags&cache.FlagModified != 0 {
				m.Stats.MemWritebacks++
			}
		}
	}
	var flags uint8
	if isStore {
		flags = cache.FlagModified
	}
	// The active L2's most recent Probe missed on this exact line (in
	// request or storeThrough), so the recorded candidates are reused.
	_, victim := m.l2[m.active].InsertProbed(line, flags)
	if victim.Valid && victim.Flags&cache.FlagModified != 0 {
		m.Stats.L3Writebacks++
		if m.l3 != nil {
			if h3, ok := m.l3.Lookup(victim.Line); ok {
				m.l3.SetFlags(h3, m.l3.Flags(h3)|cache.FlagModified)
			} else {
				_, v3 := m.l3.Insert(victim.Line, cache.FlagModified)
				if v3.Valid && v3.Flags&cache.FlagModified != 0 {
					m.Stats.MemWritebacks++
				}
			}
		}
	}
	if isStore {
		// the write resets modified on any inactive copies
		for c, l2 := range m.l2 {
			if c == m.active {
				continue
			}
			if hh, ok := l2.Lookup(line); ok {
				l2.SetFlags(hh, l2.Flags(hh)&^cache.FlagModified)
			}
		}
	}
}

var _ mem.Sink = (*Machine)(nil)

// flagPrefetched marks L2 lines inserted by the prefetcher and not yet
// touched by a demand request (usefulness accounting).
const flagPrefetched uint8 = 1 << 7
