package lrustack

import (
	"fmt"

	"repro/internal/mem"
)

// StackState is the serialisable state of a Stack: the live lines in
// recency order plus the eviction counter. Slot numbers, the Fenwick
// tree and the line index are representation details — only the order
// matters for depth queries — so restore re-densifies slots to
// 0..live-1 and rebuilds the derived structures.
type StackState struct {
	// Lines holds the live lines, least recently used first.
	Lines []mem.Line
	// Limit echoes the producing stack's cap for shape validation.
	Limit int64
	// Dropped is the number of lines evicted by the cap.
	Dropped uint64
}

// State returns a deep copy of the stack's state. The line order is
// deterministic (ascending last-reference slot), so identical stacks
// serialise identically.
func (s *Stack) State() StackState {
	return StackState{
		Lines:   s.appendLive(make([]mem.Line, 0, s.live)),
		Limit:   s.limit,
		Dropped: s.dropped,
	}
}

// SetState restores a previously captured state, replacing the stack's
// contents. The receiving stack must have the same limit regime as the
// producer.
func (s *Stack) SetState(st StackState) error {
	if st.Limit != s.limit {
		return fmt.Errorf("lrustack: state limit %d, stack limit %d", st.Limit, s.limit)
	}
	n := int64(len(st.Lines))
	if s.limit > 0 && n > s.limit {
		return fmt.Errorf("lrustack: state has %d live lines, limit is %d", n, s.limit)
	}
	idx := newLineIndex(len(st.Lines))
	for k, l := range st.Lines {
		i, dup := idx.find(l)
		if dup {
			return fmt.Errorf("lrustack: state holds line %d twice", l)
		}
		idx.insert(i, l, int64(k))
	}
	size := minSlots
	for int64(size) <= n+1 {
		size *= 2
	}
	s.idx = idx
	s.tree = make([]int64, size)
	s.rev = make([]mem.Line, size)
	copy(s.rev, st.Lines)
	s.occ = make([]uint64, size/64)
	s.used, s.live, s.low = n, n, 0
	s.fillOcc()
	s.rebuild()
	s.dropped = st.Dropped
	return nil
}
