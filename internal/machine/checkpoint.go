package machine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ioutilx"
	"repro/internal/migration"
)

// Checkpoint file format ("EMCKPT1"): an 8-byte magic, a uvarint payload
// length, a gob-encoded Checkpoint, and a little-endian CRC32 (IEEE) of
// the payload. The CRC makes a half-written or bit-rotted checkpoint a
// detected error instead of a silently wrong resume; SaveCheckpoint
// additionally writes through a temp file + rename so an interrupted
// save never clobbers the previous good checkpoint.

const checkpointMagic = "EMCKPT1\n"

// NamedSnapshot pairs a machine snapshot with the role it plays in the
// run (emsim checkpoints both the "normal" baseline and the "migration"
// machine, which advance in lockstep over one input pass).
type NamedSnapshot struct {
	Name string
	Snap Snapshot
}

// Checkpoint is everything needed to resume an interrupted simulation:
// the input identity (workload or trace file, instruction budget, core
// count), how many input events the machines have consumed, and the
// machine snapshots themselves. Resume rebuilds the machines from the
// same configuration, restores the snapshots, and re-drives the
// deterministic input with the first Events events discarded.
type Checkpoint struct {
	// Workload is the workload name ("" when driven from a trace).
	Workload string
	// Replay is the trace path driving the run ("" when synthetic).
	Replay string
	// Instr is the instruction budget of the original run.
	Instr uint64
	// Cores is the migration machine's core count.
	Cores int
	// Events is the number of sink events (Access + Instr calls) the
	// machines had consumed when the snapshot was taken.
	Events uint64

	Machines []NamedSnapshot

	// ext carries scenario state beyond the original format: the policy
	// and topology names plus non-Michaud policy states. It is
	// unexported so gob skips it in the main Checkpoint value — the
	// extension is serialised as an optional second gob value after the
	// Checkpoint (still inside the CRC-covered payload), which keeps
	// default-configuration checkpoint files byte-identical to the
	// pre-policy format and lets old readers that stop after the first
	// value ignore it.
	ext *CheckpointExt
}

// CheckpointExt is the EMCKPT1 extension section: everything a
// non-default scenario needs to resume that the original Checkpoint
// shape cannot carry without changing its gob descriptor.
type CheckpointExt struct {
	// Policy and Topology name the run's configuration ("" means the
	// Michaud default / uniform chip).
	Policy   string
	Topology string
	// PolicyStates holds the per-machine policy state for machines whose
	// policy is not the Michaud controller (whose state rides
	// Snapshot.Controller). Keyed by NamedSnapshot name.
	PolicyStates []NamedPolicyState
}

// NamedPolicyState pairs a policy state with the machine it belongs to.
type NamedPolicyState struct {
	Name  string
	State migration.PolicyState
}

// State returns the policy state recorded for machine name, or an
// error.
func (e *CheckpointExt) State(name string) (migration.PolicyState, error) {
	for _, ps := range e.PolicyStates {
		if ps.Name == name {
			return ps.State, nil
		}
	}
	return migration.PolicyState{}, fmt.Errorf("checkpoint: no policy state for machine %q", name)
}

// Ext returns the extension section, nil for checkpoints written by the
// original format or default-configuration runs.
func (c *Checkpoint) Ext() *CheckpointExt { return c.ext }

// SetExt attaches an extension section (nil detaches it, restoring the
// original on-disk format).
func (c *Checkpoint) SetExt(e *CheckpointExt) { c.ext = e }

// Machine returns the named snapshot, or an error.
func (c *Checkpoint) Machine(name string) (*Snapshot, error) {
	for i := range c.Machines {
		if c.Machines[i].Name == name {
			return &c.Machines[i].Snap, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: no machine named %q", name)
}

// CaptureCheckpoint snapshots ms into ck.Machines under names (one
// per machine, in order). A non-default scenario (policy or topology
// set) also gets the extension section, carrying the policy state of
// every machine that runs a policy; default runs attach nothing, which
// keeps their files byte-identical to the pre-policy format.
func CaptureCheckpoint(ck *Checkpoint, policy, topology string, ms []*Machine, names ...string) error {
	if len(names) != len(ms) {
		return fmt.Errorf("machine: capturing %d machines under %d names", len(ms), len(names))
	}
	scenario := policy != "" || topology != ""
	ck.Machines = make([]NamedSnapshot, len(ms))
	var states []NamedPolicyState
	for i, m := range ms {
		s, err := m.Snapshot()
		if err != nil {
			return err
		}
		ck.Machines[i] = NamedSnapshot{Name: names[i], Snap: s}
		if scenario && m.pol != nil {
			ps, err := m.PolicyState()
			if err != nil {
				return err
			}
			states = append(states, NamedPolicyState{Name: names[i], State: ps})
		}
	}
	if scenario {
		ck.SetExt(&CheckpointExt{Policy: policy, Topology: topology, PolicyStates: states})
	}
	return nil
}

// RestoreCheckpoint loads the snapshots of ck named names (one per
// machine, in order) into ms, then the checkpoint extension's policy
// state into every machine that runs a policy (non-Michaud policies
// serialise there; the snapshot's Controller field stays nil for them).
// As with Machine.Restore, the machines are unusable after an error.
func RestoreCheckpoint(ck *Checkpoint, ms []*Machine, names ...string) error {
	if len(names) != len(ms) {
		return fmt.Errorf("machine: restoring %d snapshots into %d machines", len(names), len(ms))
	}
	for i, m := range ms {
		s, err := ck.Machine(names[i])
		if err != nil {
			return err
		}
		if err := m.Restore(*s); err != nil {
			return err
		}
	}
	ext := ck.Ext()
	if ext == nil {
		return nil
	}
	for i, m := range ms {
		if m.pol == nil {
			continue
		}
		ps, err := ext.State(names[i])
		if err != nil {
			return err
		}
		if err := m.SetPolicyState(ps); err != nil {
			return fmt.Errorf("machine: restoring policy state of %q: %w", names[i], err)
		}
	}
	return nil
}

// WriteCheckpoint serialises ck to w.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(ck); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if ck.ext != nil {
		if err := enc.Encode(ck.ext); err != nil {
			return fmt.Errorf("checkpoint: encode extension: %w", err)
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(checkpointMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(payload.Len()))
	bw.Write(tmp[:n])
	bw.Write(payload.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	bw.Write(crc[:])
	return bw.Flush()
}

// ReadCheckpoint deserialises a checkpoint, verifying the magic, length
// and CRC before decoding.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", magic)
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading payload length: %w", err)
	}
	const maxPayload = 1 << 32
	if size > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds %d", size, uint64(maxPayload))
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated payload: %w", err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(br, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated CRC: %w", err)
	}
	want := binary.LittleEndian.Uint32(crcBytes[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch: computed %08x, stored %08x", got, want)
	}
	var ck Checkpoint
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&ck); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	// The extension section is optional: original-format checkpoints end
	// after the Checkpoint value and decode cleanly with a nil ext.
	var ext CheckpointExt
	switch err := dec.Decode(&ext); err {
	case nil:
		ck.ext = &ext
	case io.EOF:
	default:
		return nil, fmt.Errorf("checkpoint: decode extension: %w", err)
	}
	return &ck, nil
}

// SaveCheckpoint atomically writes ck to path (temp file + rename), so a
// crash mid-save leaves any previous checkpoint intact.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := f.Name()
	if err := writeAndClose(f, ck); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// writeAndClose writes ck to f, syncs and closes it, keeping the first
// error. The close happens here rather than deferred in SaveCheckpoint
// because the rename that publishes the checkpoint must only run after
// a clean close.
func writeAndClose(f *os.File, ck *Checkpoint) (err error) {
	defer ioutilx.CloseKeeping(&err, f)
	if err := WriteCheckpoint(f, ck); err != nil {
		return err
	}
	return f.Sync()
}

// LoadCheckpoint reads a checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
