package machine

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// The L1 stage and the filtered kernel: the two halves of every batch
// delivery. L1 content is mirrored across cores (§2.3) and nothing on
// the request path touches an L1 (see fillL1), so every IL1/DL1 outcome
// is a function of the reference stream and the L1 geometry alone. The
// stage runs the L1s once and hands the machine only what the L1s let
// through, in stream order:
//
//   - L1-miss requests, tagged with their mem.Kind (IFetch, Load,
//     PtrLoad, Store);
//   - DL1-hit stores, tagged kindStoreThrough (they still write through
//     to the active L2, invisible to the controller);
//   - instruction records (mem.KindInstr, count in the line slot).
//
// Consecutive instruction records merge while no controller-visible
// request separates them. NearMigration is a pure read of policy state
// that only request changes (storeThrough does not), so a merged record
// gates the same register bytes its parts would have — for the michaud,
// numa and never policies alike.
//
// A Machine owns a private stage over its own L1s, so AccessBatch is
// the stage followed by the kernel; a FanOut owns one stage shared by K
// machines and runs the kernel once per machine on the same filtered
// batch.

// kindStoreThrough tags a DL1-hit store in a filtered batch. It sits
// past the mem.Kind range so the miss tags keep their mem.Kind values.
const kindStoreThrough uint8 = 4

// filtered is the L1-filtered form of one mem.Batch: the records the
// L1s let through (line numbers, or instruction counts for KindInstr
// records) plus the per-kind counts of the whole batch, which the kernel
// folds into Stats and telemetry once.
type filtered struct {
	line []mem.Line
	kind []uint8

	refs, fetches, loads, stores, instrs uint64
}

// grow replaces f's columns with empty ones of capacity n.
//
//emlint:coldpath amortised growth: runs only when a batch outgrows every earlier one
func (f *filtered) grow(n int) {
	f.line = make([]mem.Line, 0, n)
	f.kind = make([]uint8, 0, n)
}

// l1Stage owns one mirrored IL1/DL1 pair and filters batches through it.
type l1Stage struct {
	shift    uint
	il1, dl1 *cache.SetAssoc
}

func newL1Stage(cfg Config) *l1Stage {
	return &l1Stage{
		shift: cfg.LineShift,
		il1:   cache.NewSetAssoc(cfg.IL1),
		dl1:   cache.NewSetAssoc(cfg.DL1),
	}
}

// filter runs b through the L1s and writes the result to out. Misses
// fill the L1 right after their probe: the kernel's request path never
// reads the L1s, so filling ahead of it is unobservable. Unknown kind
// tags count a reference and nothing else, as in the scalar Access.
//
//emlint:hotpath
func (s *l1Stage) filter(b *mem.Batch, out *filtered) {
	kinds := b.Kind
	addrs := b.Addr
	if len(addrs) != len(kinds) {
		raggedBatch()
	}
	if cap(out.kind) < len(kinds) {
		out.grow(len(kinds))
	}
	lines := out.line[:len(kinds)]
	tags := out.kind[:len(kinds)]
	il1, dl1 := s.il1, s.dl1
	shift := s.shift
	n := 0
	lastInstr := -1 // index of the instruction record open for merging
	var refs, fetches, loads, stores, instrs uint64
	for i, k := range kinds {
		if k == mem.KindInstr {
			c := uint64(addrs[i])
			instrs += c
			if lastInstr >= 0 {
				lines[lastInstr] += mem.Line(c)
				continue
			}
			lines[n] = mem.Line(c)
			tags[n] = mem.KindInstr
			lastInstr = n
			n++
			continue
		}
		refs++
		line := mem.LineOf(addrs[i], shift)
		switch mem.Kind(k) {
		case mem.IFetch:
			fetches++
			if _, ok := il1.Probe(line); ok {
				continue
			}
			il1.InsertProbed(line, 0)
		case mem.Load, mem.PtrLoad:
			loads++
			if _, ok := dl1.Probe(line); ok {
				continue
			}
			dl1.InsertProbed(line, 0)
		case mem.Store:
			stores++
			if _, ok := dl1.Probe(line); ok {
				lines[n] = line
				tags[n] = kindStoreThrough
				n++
				continue
			}
			// DL1 miss: non-write-allocate, no fill.
		default:
			continue
		}
		lines[n] = line
		tags[n] = k
		n++
		lastInstr = -1
	}
	out.line = lines[:n]
	out.kind = tags[:n]
	out.refs, out.fetches, out.loads, out.stores, out.instrs = refs, fetches, loads, stores, instrs
}

// consume is the machine's batch kernel: it services one filtered
// batch — request per L1 miss, storeThrough per DL1-hit store,
// NearMigration per instruction record, all in stream order — and folds
// the batch counts into Stats and telemetry exactly as the scalar
// Access/Instr would have one record at a time.
//
//emlint:batchpair Access
//emlint:batchpair Instr
//emlint:hotpath
func (m *Machine) consume(fb *filtered) {
	lines := fb.line
	kinds := fb.kind
	if len(lines) != len(kinds) {
		raggedBatch()
	}
	migration := m.cfg.Migration != nil
	threshold := m.cfg.BroadcastThreshold
	gated := migration && threshold > 0
	var il1Misses, dl1Misses, fills, regBytes uint64
	for i, k := range kinds {
		line := lines[i]
		switch k {
		case mem.KindInstr:
			if gated {
				n := 9 * uint64(line)
				if m.polNearMigration(threshold) {
					regBytes += n
				} else {
					m.Stats.SuppressedRegBytes += n
				}
			}
		case uint8(mem.IFetch):
			il1Misses++
			fills++
			m.request(line, false, false)
		case uint8(mem.Load):
			dl1Misses++
			fills++
			m.request(line, false, false)
		case uint8(mem.PtrLoad):
			dl1Misses++
			fills++
			m.request(line, false, true)
		case uint8(mem.Store):
			dl1Misses++
			m.request(line, true, false)
		case kindStoreThrough:
			m.storeThrough(line)
		}
	}
	m.Stats.IFetches += fb.fetches
	m.Stats.Loads += fb.loads
	m.Stats.Stores += fb.stores
	m.Stats.Instructions += fb.instrs
	m.Stats.IL1Misses += il1Misses
	m.Stats.DL1Misses += dl1Misses
	if migration {
		if !gated {
			regBytes = 9 * fb.instrs
		}
		m.Stats.UpdateBusBytes += regBytes + 16*fb.stores
		m.Stats.L1BroadcastBytes += fills * (uint64(m.cfg.Cores-1) << m.cfg.LineShift)
	}
	m.probes.refs.Add(fb.refs)
	m.probes.instructions.Add(fb.instrs)
	m.probes.il1Misses.Add(il1Misses)
	m.probes.dl1Misses.Add(dl1Misses)
}
