package core

import (
	"vichar/internal/buffers"
	"vichar/internal/soa"
)

// Polled is ViChaR's buffer as the benchmark's buffer drive
// (bench/layers.go) polls it: a buffers.Queues at ViChaR's parameters
// plus readiness words. It goes with ROADMAP item 2.
type Polled struct {
	*buffers.Queues
	words []uint64
}

// NewUBSIn returns vcs ViChaR queues over slots (nil-arena safe).
func NewUBSIn(a *soa.Arena, slots, vcs int) *Polled {
	return &Polled{Queues: buffers.NewViChaRIn(a, vcs, slots)}
}

// ReadyWords sets bit v iff ReadyAt()[v] <= now; valid until the next call.
func (b *Polled) ReadyWords(now int64) []uint64 {
	b.words = append(b.words[:0], make([]uint64, (b.MaxVCs()+63)/64)...)
	for v, at := range b.ReadyAt() {
		if at <= now {
			b.words[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return b.words
}
