package lrustack

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// naiveModel is the O(n) reference model for the full Stack API,
// including snapshot/restore: a move-to-front list (most recent first)
// with tail-drop past the cap. Depth of a reference is its index in the
// list; State mirrors StackState (LRU first).
type naiveModel struct {
	order   []mem.Line
	cap     int64
	dropped uint64
}

func (n *naiveModel) ref(line mem.Line) int64 {
	for i, l := range n.order {
		if l == line {
			copy(n.order[1:i+1], n.order[:i])
			n.order[0] = line
			return int64(i)
		}
	}
	n.order = append([]mem.Line{line}, n.order...)
	if n.cap > 0 && int64(len(n.order)) > n.cap {
		n.order = n.order[:n.cap]
		n.dropped++
	}
	return Infinite
}

func (n *naiveModel) state() StackState {
	lines := make([]mem.Line, len(n.order))
	for i, l := range n.order {
		lines[len(lines)-1-i] = l // model is MRU-first, StackState is LRU-first
	}
	return StackState{Lines: lines, Limit: n.cap, Dropped: n.dropped}
}

func (n *naiveModel) setState(st StackState) {
	n.order = make([]mem.Line, len(st.Lines))
	for i, l := range st.Lines {
		n.order[len(n.order)-1-i] = l
	}
	n.dropped = st.Dropped
}

// checkAgainstModel asserts every externally observable property of the
// stack matches the model: live count, drop accounting, and the full
// recency order via State.
func checkAgainstModel(t *testing.T, step int, op string, s *Stack, n *naiveModel) {
	t.Helper()
	if s.Live() != int64(len(n.order)) {
		t.Fatalf("step %d (%s): live = %d, model %d", step, op, s.Live(), len(n.order))
	}
	if s.Dropped() != n.dropped {
		t.Fatalf("step %d (%s): dropped = %d, model %d", step, op, s.Dropped(), n.dropped)
	}
	got, want := s.State(), n.state()
	if len(got.Lines) != len(want.Lines) {
		t.Fatalf("step %d (%s): state holds %d lines, model %d", step, op, len(got.Lines), len(want.Lines))
	}
	for i := range got.Lines {
		if got.Lines[i] != want.Lines[i] {
			t.Fatalf("step %d (%s): recency order diverged at %d:\n stack %v\n model %v",
				step, op, i, got.Lines, want.Lines)
		}
	}
}

// TestStackPropertyOpSequences drives Stack and the naive model through
// seeded random operation sequences — references, snapshots, restores
// (both in-place and into a fresh stack) — and demands identical depth
// results, recency order, live counts and drop accounting at every
// step. Covers the unbounded stack and caps that force eviction plus
// compaction churn.
func TestStackPropertyOpSequences(t *testing.T) {
	cases := []struct {
		limit    int64
		alphabet uint64
		seed     uint64
	}{
		{0, 40, 101},    // unbounded, small alphabet → heavy compaction
		{0, 5000, 102},  // unbounded, mostly first touches
		{8, 40, 103},    // tiny cap → constant eviction
		{64, 200, 104},  // cap between alphabet extremes
		{300, 200, 105}, // cap never reached: must behave as unbounded
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("limit=%d/alphabet=%d", tc.limit, tc.alphabet), func(t *testing.T) {
			rng := trace.NewRNG(tc.seed)
			s := NewLimited(tc.limit)
			n := &naiveModel{cap: tc.limit}
			var stash []StackState // snapshots taken mid-run, restored later

			const steps = 6000
			for i := 0; i < steps; i++ {
				switch op := rng.Uint64n(100); {
				case op < 90: // reference
					line := mem.Line(rng.Uint64n(tc.alphabet))
					got, want := s.Ref(line), n.ref(line)
					if got != want {
						t.Fatalf("step %d: Ref(%d) depth %d, model %d", i, line, got, want)
					}
					if i%97 == 0 {
						checkAgainstModel(t, i, "ref", s, n)
					}
				case op < 95: // snapshot: stash it and verify it matches the model's
					st := s.State()
					want := n.state()
					if len(st.Lines) != len(want.Lines) || st.Dropped != want.Dropped || st.Limit != tc.limit {
						t.Fatalf("step %d: snapshot %+v, model %+v", i, st, want)
					}
					stash = append(stash, st)
				case op < 98 && len(stash) > 0: // restore in place
					st := stash[rng.Uint64n(uint64(len(stash)))]
					if err := s.SetState(st); err != nil {
						t.Fatalf("step %d: SetState: %v", i, err)
					}
					n.setState(st)
					checkAgainstModel(t, i, "restore", s, n)
				case len(stash) > 0: // restore into a fresh stack and continue on it
					st := stash[rng.Uint64n(uint64(len(stash)))]
					fresh := NewLimited(tc.limit)
					if err := fresh.SetState(st); err != nil {
						t.Fatalf("step %d: fresh SetState: %v", i, err)
					}
					s = fresh
					n.setState(st)
					checkAgainstModel(t, i, "fresh-restore", s, n)
				}
			}
			checkAgainstModel(t, steps, "final", s, n)
			if tc.limit > 0 && s.Live() > tc.limit {
				t.Fatalf("live %d exceeds cap %d", s.Live(), tc.limit)
			}
			if tc.limit == 8 && s.Dropped() == 0 {
				t.Fatal("tiny cap produced no drops; op mix is not exercising eviction")
			}
		})
	}
}

// TestStackPropertyDepthProfile replays the same seeded op sequence
// twice — once straight through, once snapshotting halfway and
// finishing on a restored fresh stack — and demands the depth profile
// of the second half be identical. Snapshot/restore must be invisible
// to every subsequent depth query.
func TestStackPropertyDepthProfile(t *testing.T) {
	for _, limit := range []int64{0, 32} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			const half, total = 3000, 6000
			mkLines := func() []mem.Line {
				rng := trace.NewRNG(7)
				lines := make([]mem.Line, total)
				for i := range lines {
					lines[i] = mem.Line(rng.Uint64n(120))
				}
				return lines
			}
			lines := mkLines()

			ref := NewLimited(limit)
			var refDepths []int64
			for _, l := range lines {
				refDepths = append(refDepths, ref.Ref(l))
			}

			s := NewLimited(limit)
			for _, l := range lines[:half] {
				s.Ref(l)
			}
			st := s.State()
			resumed := NewLimited(limit)
			if err := resumed.SetState(st); err != nil {
				t.Fatal(err)
			}
			for i, l := range lines[half:] {
				if got := resumed.Ref(l); got != refDepths[half+i] {
					t.Fatalf("ref %d after restore: depth %d, want %d", half+i, got, refDepths[half+i])
				}
			}
			if resumed.Dropped() != ref.Dropped() || resumed.Live() != ref.Live() {
				t.Fatalf("after restore: live %d dropped %d, reference live %d dropped %d",
					resumed.Live(), resumed.Dropped(), ref.Live(), ref.Dropped())
			}
		})
	}
}

// TestStackPropertyCompactionAndGrowth drives seeded streams long enough
// to force repeated compactions and tree doublings, checking depth,
// Live, Dropped and the full State against the naive model at every
// step. Right after each compaction the stack is round-tripped through
// State/SetState into a fresh stack, which the stream then continues on.
func TestStackPropertyCompactionAndGrowth(t *testing.T) {
	cases := []struct {
		limit          int64
		alphabet       uint64
		steps          int
		minCompactions int
		minDoublings   int
	}{
		{0, 3000, 30000, 3, 2},    // unbounded: 1024 → 8192 slots, then compaction cycles
		{512, 3000, 12000, 3, 1},  // heavy eviction: the cap keeps the tree at 2048 slots
		{1500, 3000, 20000, 3, 2}, // cap above two doublings' worth of slots
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("limit=%d/alphabet=%d", tc.limit, tc.alphabet), func(t *testing.T) {
			rng := trace.NewRNG(uint64(9000 + tc.limit))
			s := NewLimited(tc.limit)
			n := &naiveModel{cap: tc.limit}
			prevUsed, prevLen := s.used, len(s.tree)
			compactions, doublings := 0, 0
			for i := 0; i < tc.steps; i++ {
				line := mem.Line(rng.Uint64n(tc.alphabet))
				if got, want := s.Ref(line), n.ref(line); got != want {
					t.Fatalf("step %d: Ref(%d) depth %d, model %d", i, line, got, want)
				}
				checkAgainstModel(t, i, "ref", s, n)
				if len(s.tree) > prevLen {
					doublings++
				}
				if s.used < prevUsed {
					compactions++
					fresh := NewLimited(tc.limit)
					if err := fresh.SetState(s.State()); err != nil {
						t.Fatalf("step %d: SetState after compaction: %v", i, err)
					}
					checkAgainstModel(t, i, "post-compaction restore", fresh, n)
					s = fresh
				}
				prevUsed, prevLen = s.used, len(s.tree)
			}
			if compactions < tc.minCompactions || doublings < tc.minDoublings {
				t.Fatalf("stream forced %d compactions and %d doublings, want >= %d and >= %d",
					compactions, doublings, tc.minCompactions, tc.minDoublings)
			}
			if tc.limit > 0 && s.Dropped() == 0 {
				t.Fatal("capped stack never evicted; the alphabet does not exceed the cap")
			}
		})
	}
}

// collidingLines returns count lines whose home entry in a
// minIndexCap-entry index is home, starting from first (inclusive when
// it qualifies).
func collidingLines(home int, first mem.Line, count int) []mem.Line {
	x := newLineIndex(0)
	var out []mem.Line
	for l := first; len(out) < count; l++ {
		if x.home(l) == home {
			out = append(out, l)
		}
	}
	return out
}

// TestLineIndexBackwardShiftDelete pins the index's deletion on chains
// of keys that share one home entry — including line 0 and a chain that
// wraps past the end of the array — against a map model: after every
// insert and remove, each bound line is found at its slot, each removed
// line is absent, and no entry sits outside its probe chain.
func TestLineIndexBackwardShiftDelete(t *testing.T) {
	last := minIndexCap - 1
	zeroChain := collidingLines(0, 0, 4) // line 0 homes at entry 0
	wrapChain := collidingLines(last, 1, 3)
	mixed := append(append([]mem.Line{}, wrapChain...), zeroChain...)
	// atHome sits in its own home entry 2, between members of the home-0
	// chain: the shift after removing line 0 must step over it.
	atHome := collidingLines(2, 1, 1)[0]
	straddle := []mem.Line{zeroChain[0], zeroChain[1], atHome, zeroChain[2]}
	cases := []struct {
		name   string
		insert []mem.Line
		remove []mem.Line
	}{
		{"line 0 heads the chain", zeroChain, []mem.Line{0}},
		{"remove middle of chain", zeroChain, []mem.Line{zeroChain[2], zeroChain[1]}},
		{"remove tail then head", zeroChain, []mem.Line{zeroChain[3], zeroChain[0]}},
		{"drain whole chain", zeroChain, zeroChain},
		{"chain wraps past the end", mixed, []mem.Line{wrapChain[0], 0}},
		{"entry at its own home stays put", straddle, []mem.Line{0, zeroChain[1]}},
		{"absent line is a no-op", zeroChain[:2], []mem.Line{zeroChain[3]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := newLineIndex(0)
			model := make(map[mem.Line]int64)
			check := func(op string) {
				t.Helper()
				if x.n != len(model) {
					t.Fatalf("%s: n = %d, model %d", op, x.n, len(model))
				}
				for l, sl := range model {
					i, ok := x.find(l)
					if !ok || x.ents[i].slot != sl {
						t.Fatalf("%s: line %d found=%v slot %d, want %d", op, l, ok, x.ents[i].slot, sl)
					}
				}
				for _, l := range tc.insert {
					if _, bound := model[l]; !bound {
						if _, ok := x.find(l); ok {
							t.Fatalf("%s: removed line %d still found", op, l)
						}
					}
				}
				mask := len(x.ents) - 1
				for i, e := range x.ents {
					if e.slot == emptySlot {
						continue
					}
					for j := x.home(e.line); j != i; j = (j + 1) & mask {
						if x.ents[j].slot == emptySlot {
							t.Fatalf("%s: line %d at %d, hole at %d inside its chain", op, e.line, i, j)
						}
					}
				}
			}
			for k, l := range tc.insert {
				i, ok := x.find(l)
				if ok {
					t.Fatalf("insert %d: already present", l)
				}
				x.insert(i, l, int64(k))
				model[l] = int64(k)
				check(fmt.Sprintf("insert %d", l))
			}
			for _, l := range tc.remove {
				x.remove(l)
				delete(model, l)
				check(fmt.Sprintf("remove %d", l))
			}
		})
	}
}

// TestStackRefSteadyStateZeroAllocs: once a capped stack has grown past
// its cap and its arrays have reached steady size, Ref allocates nothing
// — compactions included, since they reuse the slot arrays.
func TestStackRefSteadyStateZeroAllocs(t *testing.T) {
	const limit, alphabet = 512, 3000
	s := NewLimited(limit)
	rng := trace.NewRNG(77)
	for i := 0; i < 20*limit; i++ {
		s.Ref(mem.Line(rng.Uint64n(alphabet)))
	}
	if s.Live() != limit || s.Dropped() == 0 {
		t.Fatalf("warm-up left live=%d dropped=%d; want the cap reached and evicting", s.Live(), s.Dropped())
	}
	allocs := testing.AllocsPerRun(10*limit, func() {
		s.Ref(mem.Line(rng.Uint64n(alphabet)))
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/op in steady-state Ref; the //emlint:hotpath path must stay allocation-free", allocs)
	}
}
