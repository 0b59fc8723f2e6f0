// Package lrustack implements Mattson's LRU stack-distance profiler
// (Mattson et al., "Evaluation techniques for storage hierarchies",
// 1970), the tool behind the paper's §4.1 experiments: a single pass
// over a reference stream yields, for every cache size x at once, the
// miss ratio of a fully-associative LRU cache of that size — the curve
// p(x) plotted in the paper's Figures 4 and 5.
//
// The classical stack is a move-to-front list with O(depth) search. We
// use the standard time-slot/Fenwick-tree reformulation: each line
// holds the (monotonically increasing) time slot of its last reference;
// the stack depth of a reference equals the number of lines whose slot
// is more recent — a prefix-sum query, O(log n).
//
// Representation: a slot-ordered line array (rev) and a liveness bitmap
// sized with the Fenwick tree, plus a private open-addressed line → slot
// index. One reference costs one index probe plus the Fenwick walks, and
// allocates nothing once the arrays have grown to the working set. When
// the slots outgrow twice the live-line count, compaction walks the live
// slots in order (which IS recency order), renumbers them densely and
// rebuilds the tree in O(n) — no sort — keeping memory proportional to
// the distinct-line count. The capped stack evicts through a cursor on
// the oldest live slot, which only moves forward between compactions.
package lrustack

import (
	"math/bits"

	"repro/internal/mem"
)

// Infinite is the depth reported for a first-touch reference (the paper:
// "a reference which is encountered for the first time has an infinite
// LRU stack depth").
const Infinite = int64(^uint64(0) >> 1)

// minSlots is the Fenwick tree length of a fresh stack; every slot array
// grows on demand from here by doubling.
const minSlots = 1024

// Stack is an LRU stack with O(log n) depth queries. By default it is
// unbounded — it tracks every distinct line ever referenced; NewLimited
// caps the live-line count with LRU eviction.
type Stack struct {
	// idx maps each live line to its slot.
	//emlint:nosnapshot derived: rebuilt from the state's line order by SetState
	idx lineIndex
	// Fenwick tree over slots, 1-based; len(tree) is a power of two and
	// slots 0..len(tree)-2 are usable.
	//emlint:nosnapshot derived: rebuilt from occ by SetState
	tree []int64
	// rev[sl] is the line whose last reference took slot sl; occ has
	// bit sl set while that line is live (not re-referenced or evicted
	// since). Both are sized with tree.
	rev []mem.Line
	occ []uint64
	// used is the next free slot (number of slots consumed).
	used int64
	// low is a lower bound on the oldest live slot: every slot below it
	// is dead. It only advances between compactions.
	low     int64
	live    int64  // number of live (distinct) lines
	limit   int64  // max live lines (0 = unbounded)
	dropped uint64 // lines evicted by the cap
}

// New returns an empty unbounded stack.
func New() *Stack {
	return &Stack{
		idx:  newLineIndex(0),
		tree: make([]int64, minSlots),
		rev:  make([]mem.Line, minSlots),
		occ:  make([]uint64, minSlots/64),
	}
}

// NewLimited returns a stack that never tracks more than limit distinct
// lines: when a first touch would exceed the cap, the least recently
// used line is evicted and counted in Dropped, and its next reference
// reads as a first touch (Infinite) again. limit <= 0 means unbounded.
//
// The capped stack stays EXACT for every threshold <= limit: an evicted
// line had depth >= limit at eviction, and depth only grows until the
// line is re-referenced, so the unbounded stack would also report a
// miss at every threshold <= limit for that reference. Only the
// cold-versus-deep-miss attribution above the cap is approximated.
func NewLimited(limit int64) *Stack {
	s := New()
	if limit > 0 {
		s.limit = limit
	}
	return s
}

// add updates the Fenwick tree at slot i (0-based) by delta.
func (s *Stack) add(i int64, delta int64) {
	for j := i + 1; j < int64(len(s.tree)); j += j & (-j) {
		s.tree[j] += delta
	}
}

// sum returns the count of live slots in [0, i] (0-based inclusive).
func (s *Stack) sum(i int64) int64 {
	var t int64
	for j := i + 1; j > 0; j -= j & (-j) {
		t += s.tree[j]
	}
	return t
}

// isLive reports whether slot sl holds a live line.
func (s *Stack) isLive(sl int64) bool { return s.occ[sl>>6]&(1<<(sl&63)) != 0 }

// kill retires slot sl: its line was re-referenced or evicted.
func (s *Stack) kill(sl int64) {
	s.add(sl, -1)
	s.occ[sl>>6] &^= 1 << (sl & 63)
}

// grow makes room for one more slot: it compacts when at least half the
// slots are dead, and otherwise doubles the slot arrays.
//
//emlint:coldpath runs once per >= live references; doubling allocates, compaction reuses the arrays
func (s *Stack) grow() {
	if s.used >= 2*s.live && s.live > 0 {
		s.compact()
		return
	}
	n := 2 * len(s.tree)
	s.tree = make([]int64, n)
	s.rev = append(s.rev, make([]mem.Line, n-len(s.rev))...)
	s.occ = append(s.occ, make([]uint64, n/64-len(s.occ))...)
	s.rebuild()
}

// compact renumbers the live lines to slots 0..live-1, preserving their
// order, and rebuilds the tree.
//
//emlint:coldpath runs once per >= live references; reuses the slot arrays
func (s *Stack) compact() {
	words := (s.used + 63) >> 6
	// The in-order walk writes slot k while reading slot sl >= k, so it
	// can pack rev in place.
	lines := s.appendLive(s.rev[:0])
	for k, line := range lines {
		s.idx.setSlot(line, int64(k))
	}
	clear(s.occ[:words])
	s.used = int64(len(lines))
	s.fillOcc()
	s.low = 0
	s.rebuild()
}

// appendLive appends the live lines to dst in slot order — least
// recently used first — walking the liveness bitmap a word at a time.
func (s *Stack) appendLive(dst []mem.Line) []mem.Line {
	for w := s.low >> 6; w<<6 < s.used; w++ {
		for b := s.occ[w]; b != 0; b &= b - 1 {
			dst = append(dst, s.rev[w<<6+int64(bits.TrailingZeros64(b))])
		}
	}
	return dst
}

// fillOcc marks slots 0..used-1 live (the dense layout after compaction
// or restore). The bitmap must be clear beyond them.
func (s *Stack) fillOcc() {
	full := s.used >> 6
	for w := int64(0); w < full; w++ {
		s.occ[w] = ^uint64(0)
	}
	if r := s.used & 63; r != 0 {
		s.occ[full] = 1<<r - 1
	}
}

// rebuild recomputes the Fenwick tree from the liveness bitmap with the
// O(n) construction: each node adds its leaf, then pushes its total to
// its parent.
func (s *Stack) rebuild() {
	t := s.tree
	clear(t)
	for i := 1; i < len(t); i++ {
		if s.isLive(int64(i - 1)) {
			t[i]++
		}
		if p := i + i&(-i); p < len(t) {
			t[p] += t[i]
		}
	}
}

// Ref records a reference to line and returns its stack depth BEFORE the
// reference: the number of distinct lines referenced since the previous
// reference to line, or Infinite on first touch. A depth of 0 means line
// was also the immediately preceding reference.
//
//emlint:hotpath
func (s *Stack) Ref(line mem.Line) int64 {
	if s.used+1 >= int64(len(s.tree)) {
		s.grow()
	}
	sl := s.used
	s.used++
	depth := Infinite
	if i, seen := s.idx.find(line); seen {
		old := s.idx.ents[i].slot
		// lines with slot strictly greater than old
		depth = s.live - s.sum(old)
		s.kill(old)
		s.idx.ents[i].slot = sl
	} else {
		s.idx.insert(i, line, sl)
		s.live++
	}
	s.rev[sl] = line
	s.occ[sl>>6] |= 1 << (sl & 63)
	s.add(sl, 1)
	if s.limit > 0 && s.live > s.limit {
		s.evict()
	}
	return depth
}

// evict removes the least recently used live line: the first live slot
// at or after the low cursor. Only called when live > limit >= 1, so the
// victim is never the line just inserted (which holds the highest slot
// while at least one other line is live).
func (s *Stack) evict() {
	for !s.isLive(s.low) {
		s.low++
	}
	victim := s.rev[s.low]
	s.kill(s.low)
	s.idx.remove(victim)
	s.live--
	s.dropped++
}

// Live returns the number of live (distinct, not evicted) lines.
func (s *Stack) Live() int64 { return s.live }

// Limit returns the live-line cap (0 = unbounded).
func (s *Stack) Limit() int64 { return s.limit }

// Dropped returns the number of lines evicted by the cap.
func (s *Stack) Dropped() uint64 { return s.dropped }
