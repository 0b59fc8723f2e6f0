package lrustack

import "repro/internal/mem"

// lineIndex maps every live line of a Stack to the time slot of its last
// reference. It is an open-addressed hash table — linear probing over a
// power-of-two entry array, Fibonacci hashing, backward-shift deletion,
// the scheme of affinity.Unbounded — so a reference finds, updates or
// claims its entry with a single probe sequence and no steady-state
// allocation, and deletion leaves no tombstones behind.
type lineIndex struct {
	ents  []indexEntry // len is a power of two
	shift uint         // 64 - log2(len(ents)): the home slot is the hash's top bits
	n     int          // occupied entries
}

// indexEntry is one line → slot binding; slot == emptySlot marks a free
// entry (line 0 is a valid key, so occupancy cannot live in line).
type indexEntry struct {
	line mem.Line
	slot int64
}

const emptySlot = -1

// fibMul is the 64-bit golden-ratio multiplier (2^64/φ, odd). Fibonacci
// hashing takes the TOP bits of line*fibMul, which depend on every bit
// of the line, so both sequential lines and power-of-two strides spread
// across the table.
const fibMul = 0x9E3779B97F4A7C15

// minIndexCap is the entry count of a fresh index, matching the
// 1024-slot start of the Fenwick tree.
const minIndexCap = 1024

// newLineIndex returns an empty index able to hold n lines below its
// 3/4 load limit without growing.
func newLineIndex(n int) lineIndex {
	c := minIndexCap
	for c*3 < n*4 {
		c *= 2
	}
	var x lineIndex
	x.alloc(c)
	return x
}

// alloc replaces the entry array with c free entries (c a power of two).
func (x *lineIndex) alloc(c int) {
	x.ents = make([]indexEntry, c)
	for i := range x.ents {
		x.ents[i].slot = emptySlot
	}
	x.shift = 64
	for ; c > 1; c >>= 1 {
		x.shift--
	}
	x.n = 0
}

// home returns line's preferred entry.
func (x *lineIndex) home(line mem.Line) int {
	return int((uint64(line) * fibMul) >> x.shift)
}

// find returns the position of line's entry and true, or the position of
// the free entry that ends line's probe chain and false.
func (x *lineIndex) find(line mem.Line) (int, bool) {
	mask := len(x.ents) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		switch e := &x.ents[i]; {
		case e.slot == emptySlot:
			return i, false
		case e.line == line:
			return i, true
		}
	}
}

// insert binds line (absent) to slot, claiming the free entry i that
// find returned, or re-probing after growing past 3/4 load.
func (x *lineIndex) insert(i int, line mem.Line, slot int64) {
	if (x.n+1)*4 > len(x.ents)*3 {
		x.grow()
		i, _ = x.find(line)
	}
	x.ents[i] = indexEntry{line: line, slot: slot}
	x.n++
}

// grow doubles the entry array and rehashes every binding.
//
//emlint:coldpath doubling, amortised O(1) per inserted line
func (x *lineIndex) grow() {
	old := x.ents
	x.alloc(2 * len(old))
	for _, e := range old {
		if e.slot != emptySlot {
			i, _ := x.find(e.line)
			x.ents[i] = e
			x.n++
		}
	}
}

// setSlot rebinds a present line to slot.
func (x *lineIndex) setSlot(line mem.Line, slot int64) {
	i, _ := x.find(line)
	x.ents[i].slot = slot
}

// remove deletes line's binding, if any, by backward shift: every entry
// displaced past the freed position by linear probing moves back, so
// probe chains stay as short as an insertion-only history makes them.
func (x *lineIndex) remove(line mem.Line) {
	i, ok := x.find(line)
	if !ok {
		return
	}
	x.n--
	mask := len(x.ents) - 1
	for j := i; ; {
		x.ents[i].slot = emptySlot
		for {
			j = (j + 1) & mask
			if x.ents[j].slot == emptySlot {
				return
			}
			// The entry at j may fill the hole at i only if its home is
			// cyclically outside (i, j]: probing from home reaches i first.
			if (j-x.home(x.ents[j].line))&mask >= (j-i)&mask {
				x.ents[i] = x.ents[j]
				i = j
				break
			}
		}
	}
}
