package lrustack_test

import (
	"testing"

	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// BenchmarkStackRef times one Ref on a stack capped at the interval
// sampler's DefaultStackLimit, over a stream whose working set (a hot
// quarter-cap set plus uniform traffic over twice the cap) keeps the
// stack at its cap: every op mixes hits at all depths, first touches,
// evictions and amortised compactions. The stack is warmed to its
// steady array sizes before timing.
func BenchmarkStackRef(b *testing.B) {
	const limit = sampling.DefaultStackLimit
	rng := trace.NewRNG(5)
	stream := make([]mem.Line, 1<<20)
	for i := range stream {
		if rng.Uint64n(4) != 0 {
			stream[i] = mem.Line(rng.Uint64n(limit / 4))
		} else {
			stream[i] = mem.Line(rng.Uint64n(2 * limit))
		}
	}
	mask := len(stream) - 1
	s := lrustack.NewLimited(limit)
	for i := 0; i < 4*limit; i++ {
		s.Ref(stream[i&mask])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ref(stream[i&mask])
	}
}
