package machine

import "repro/internal/mem"

// Batched event delivery: the columnar fast path of the simulator.
// AccessBatch consumes a mem.Batch in one call: the machine's private
// L1 stage filters it (stage.go), and the one batch kernel, consume,
// services what the L1s let through. Only L1 misses and DL1-hit stores
// reach the branchy request/storeThrough slow path — the same code the
// scalar Access uses, so the two entry points cannot drift apart
// semantically. The scalar and batched paths are pinned equivalent by
// TestAccessBatchMatchesScalar.
//
// Equivalence notes (the differential tests rely on these):
//   - Counter accumulation is observationally safe because telemetry
//     snapshots, timeline ticks and checkpoints only read the counters
//     between sink calls — never inside one — and batch producers align
//     flushes to those boundaries.
//   - NearMigration is evaluated per instruction record, in stream
//     order relative to the controller-visible requests, as the scalar
//     Instr does: the register-update suppression window depends on the
//     policy state at that point of the stream.
//   - Unknown kind tags count a reference and nothing else, matching
//     the scalar Access (refs increments before the kind switch).

// AccessBatch implements mem.BatchSink. It delivers every record of b
// in order, semantically identical to calling Access/Instr one record
// at a time. A machine attached to a FanOut shares its L1s with the
// other machines there and must receive events only through the
// FanOut; AccessBatch panics on such a machine.
//
//emlint:hotpath
func (m *Machine) AccessBatch(b *mem.Batch) {
	if m.stage == nil {
		attachedBatch()
	}
	m.stage.filter(b, &m.fb)
	m.consume(&m.fb)
}

// raggedBatch reports a violated Batch invariant. Kept out of the
// kernel bodies so the hot loops stay free of the interface boxing a
// panic argument implies.
//
//emlint:coldpath terminal: only reached on a programming error
func raggedBatch() {
	//emlint:allowpanic Batch invariant: parallel columns always have equal length
	panic("machine: ragged batch")
}

// attachedBatch reports a direct delivery to a machine whose L1s belong
// to a FanOut's shared stage.
//
//emlint:coldpath terminal: only reached on a programming error
func attachedBatch() {
	//emlint:allowpanic attached machines share their L1s; delivering around the FanOut would filter the stream twice
	panic("machine: AccessBatch on a machine attached to a FanOut")
}

var _ mem.BatchSink = (*Machine)(nil)
