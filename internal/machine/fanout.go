package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/mem"
)

// FanOut feeds one event stream to K machines through one shared L1
// stage: each batch is filtered once and the filtered batch is handed
// to every machine's kernel in turn. It is the serial driver behind
// every multi-machine experiment (emsim's two machines, the service's
// /run job, each sampling chain); Pipeline is its concurrent form.
//
// Attaching points every machine's il1/dl1 at the stage's caches, so
// Snapshot still captures the L1 arrays (all machines report the same
// ones) and EMCKPT1 bytes are those of K machines that simulated the
// same L1s privately. An attached machine receives events only through
// its FanOut.
type FanOut struct {
	stage *l1Stage
	ms    []*Machine
	fb    filtered
	one   oneRecord
}

// NewFanOut attaches ms to one L1 stage: the first machine's private
// stage becomes the shared one. The machines must be freshly built
// (the others' private L1s are discarded) and agree on the L1 geometry
// and line size.
func NewFanOut(ms ...*Machine) (*FanOut, error) {
	if len(ms) == 0 {
		return nil, errors.New("machine: fan-out needs at least one machine")
	}
	cfg := ms[0].cfg
	for i, m := range ms {
		if m.stage == nil {
			return nil, fmt.Errorf("machine: fan-out machine %d is already attached to a stage", i)
		}
		if m.cfg.IL1 != cfg.IL1 || m.cfg.DL1 != cfg.DL1 || m.cfg.LineShift != cfg.LineShift {
			return nil, fmt.Errorf("machine: fan-out machine %d has a different L1 geometry", i)
		}
	}
	f := &FanOut{stage: ms[0].stage, ms: ms, one: oneRecord{mem.NewBatch(1)}}
	for _, m := range ms {
		m.il1, m.dl1 = f.stage.il1, f.stage.dl1
		m.stage = nil
	}
	return f, nil
}

// AccessBatch implements mem.BatchSink: filter once, then run every
// machine's kernel over the filtered batch in machine order.
//
//emlint:hotpath
func (f *FanOut) AccessBatch(b *mem.Batch) {
	f.stage.filter(b, &f.fb)
	for _, m := range f.ms {
		m.consume(&f.fb)
	}
}

// Access implements mem.Sink for scalar producers: the record goes
// through the stage as a one-record batch.
func (f *FanOut) Access(addr mem.Addr, kind mem.Kind) { f.AccessBatch(f.one.access(addr, kind)) }

// Instr implements mem.Sink for scalar producers.
func (f *FanOut) Instr(n uint64) { f.AccessBatch(f.one.instr(n)) }

var _ mem.BatchSink = (*FanOut)(nil)

// oneRecord turns a scalar producer call into a one-record batch.
type oneRecord struct{ b *mem.Batch }

func (o oneRecord) access(addr mem.Addr, kind mem.Kind) *mem.Batch {
	o.b.Reset()
	o.b.Append(addr, kind)
	return o.b
}

func (o oneRecord) instr(n uint64) *mem.Batch {
	o.b.Reset()
	o.b.AppendInstr(n)
	return o.b
}

// L1MismatchError reports a checkpoint whose machines carry different
// L1 contents, which no shared stage can hold: the machines did not see
// the same stream, or the checkpoint was edited.
type L1MismatchError struct {
	// Name is the first machine whose IL1/DL1 state differs from that
	// of Want, the first machine restored.
	Name, Want string
}

func (e *L1MismatchError) Error() string {
	return fmt.Sprintf("machine: checkpoint machine %q has L1 state different from %q; a shared L1 stage cannot restore it", e.Name, e.Want)
}

// Restore loads the snapshots of ck named names (one per machine, in
// machine order) into the fan-out's machines through RestoreCheckpoint.
// All snapshots must carry the same L1 state, or Restore returns an
// *L1MismatchError before touching any machine.
func (f *FanOut) Restore(ck *Checkpoint, names ...string) error {
	var first *Snapshot
	for _, name := range names {
		s, err := ck.Machine(name)
		if err != nil {
			return err
		}
		if first == nil {
			first = s
		} else if !sameCacheState(s.IL1, first.IL1) || !sameCacheState(s.DL1, first.DL1) {
			return &L1MismatchError{Name: name, Want: names[0]}
		}
	}
	return RestoreCheckpoint(ck, f.ms, names...)
}

// sameCacheState compares two cache states field by field. Nil and
// empty columns compare equal: gob does not distinguish them.
func sameCacheState(a, b cache.SetAssocState) bool {
	return a.Geo == b.Geo && a.Clock == b.Clock && a.Count == b.Count &&
		slicesEqual(a.Lines, b.Lines) && slicesEqual(a.Valid, b.Valid) &&
		slicesEqual(a.Flags, b.Flags) && slicesEqual(a.Stamp, b.Stamp)
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Pipeline is the concurrent form of a FanOut: the caller's goroutine
// filters each batch once into a slot of a fixed ring, and every
// machine's kernel runs on its own goroutine over the ring's slots in
// order. A slot returns to the ring when the last machine has consumed
// it, so the steady state allocates nothing and the producer runs at
// most the ring's depth ahead of the slowest machine.
//
// Tick inserts a marker into the stream: each machine's goroutine calls
// the tick hook with the producer's event number once it has consumed
// everything before the marker, so per-machine observers (timelines,
// live metrics) sample exactly where a serial pass would have. Close
// drains every queued slot, so all machines end at the same event.
type Pipeline struct {
	f      *FanOut
	free   chan *slot
	queues []chan *slot
	wg     sync.WaitGroup
	// panics holds the first panic of each machine goroutine; Close
	// re-raises it on the producer's goroutine.
	panics []any
}

// slot is one ring entry: a filtered batch, or a tick marker.
type slot struct {
	fb      filtered
	tick    uint64 // nonzero: a marker at this event, no records
	pending atomic.Int32
}

// pipelineDepth is the ring size: enough slack to absorb the
// batch-to-batch variation of the machines' kernels without holding
// more than a few hundred KB of filtered records.
const pipelineDepth = 8

// Pipeline starts one goroutine per machine and returns the producer
// side. tick, when non-nil, receives (machine index, event) for every
// Tick marker, on that machine's goroutine. The FanOut must not be used
// directly until Close returns.
func (f *FanOut) Pipeline(tick func(machine int, events uint64)) *Pipeline {
	p := &Pipeline{
		f:      f,
		free:   make(chan *slot, pipelineDepth),
		queues: make([]chan *slot, len(f.ms)),
		panics: make([]any, len(f.ms)),
	}
	for i := 0; i < pipelineDepth; i++ {
		s := &slot{}
		s.fb.grow(mem.DefaultBatchLen)
		p.free <- s
	}
	for i, m := range f.ms {
		p.queues[i] = make(chan *slot, pipelineDepth)
		p.wg.Add(1)
		go p.serve(i, m, tick)
	}
	return p
}

// serve is machine i's goroutine. After a panic it keeps releasing
// slots unconsumed, so the producer never blocks on a dead consumer;
// Close reports the panic.
func (p *Pipeline) serve(i int, m *Machine, tick func(int, uint64)) {
	defer p.wg.Done()
	in := p.queues[i]
	var cur *slot
	defer func() {
		if r := recover(); r != nil {
			p.panics[i] = r
			if cur != nil {
				p.release(cur)
			}
			for s := range in {
				p.release(s)
			}
		}
	}()
	for s := range in {
		cur = s
		if s.tick != 0 {
			if tick != nil {
				tick(i, s.tick)
			}
		} else {
			m.consume(&s.fb)
		}
		cur = nil
		p.release(s)
	}
}

// release returns s to the ring once every machine is done with it.
func (p *Pipeline) release(s *slot) {
	if s.pending.Add(-1) == 0 {
		p.free <- s
	}
}

// publish hands s to every machine goroutine.
func (p *Pipeline) publish(s *slot) {
	s.pending.Store(int32(len(p.queues)))
	for _, q := range p.queues {
		q <- s
	}
}

// AccessBatch implements mem.BatchSink: filter b into the next free
// slot and publish it.
//
//emlint:hotpath
func (p *Pipeline) AccessBatch(b *mem.Batch) {
	s := <-p.free
	s.tick = 0
	p.f.stage.filter(b, &s.fb)
	p.publish(s)
}

// Tick publishes a marker at event events (which must be nonzero).
func (p *Pipeline) Tick(events uint64) {
	s := <-p.free
	s.tick = events
	p.publish(s)
}

// Access implements mem.Sink for scalar producers, one record per slot.
func (p *Pipeline) Access(addr mem.Addr, kind mem.Kind) { p.AccessBatch(p.f.one.access(addr, kind)) }

// Instr implements mem.Sink for scalar producers.
func (p *Pipeline) Instr(n uint64) { p.AccessBatch(p.f.one.instr(n)) }

// Close lets every machine goroutine drain its queue and exit, waits
// for them, and re-raises the first machine panic, if any. Call it
// exactly once, also when the producer panics (defer it), so no
// goroutine outlives the run.
func (p *Pipeline) Close() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
	for _, r := range p.panics {
		if r != nil {
			//emlint:allowpanic re-raise of a machine goroutine's panic on the producer's goroutine
			panic(r)
		}
	}
}

var _ mem.BatchSink = (*Pipeline)(nil)
