package buffers

import (
	"fmt"

	"vichar/internal/flit"
)

// FCCB models the Fully Connected Circular Buffer of Ni, Pirvu &
// Bhuyan (ICCD 1998): like the DAMQ it shares one slot pool among a
// fixed number of virtual channels, but its one-directional circular
// shifter lets it complete buffer management in a single clock cycle
// — the paper explicitly grants it that (generous) assumption in the
// Figure 13(d) comparison. Its remaining weaknesses relative to
// ViChaR are architectural, not temporal: the VC count is fixed, and
// multiple packets share a queue in FIFO order (head-of-line
// blocking). The hardware costs the paper measures for it (26% slower
// datapath, +18% buffer area, +66% dynamic power from continuous
// shifting) are captured by the synthesis model in internal/synth,
// not here.
type FCCB struct {
	queues
	vcs   int
	slots int
	occ   int
}

// NewFCCB returns an FC-CB with the given fixed VC count and shared
// slot pool size.
func NewFCCB(vcs, slots int) *FCCB {
	if vcs < 1 || slots < vcs {
		panic(fmt.Sprintf("buffers: FC-CB needs at least one slot per VC, got %d VCs, %d slots", vcs, slots))
	}
	return &FCCB{vcs: vcs, slots: slots, queues: newQueues(vcs, 0)}
}

// Slots returns the shared pool size.
func (b *FCCB) Slots() int { return b.slots }

// MaxVCs returns the fixed VC count.
func (b *FCCB) MaxVCs() int { return b.vcs }

// FreeSlotsFor returns the shared pool headroom (identical for every
// VC).
func (b *FCCB) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= b.vcs {
		return 0
	}
	return b.slots - b.occ
}

// Write claims a shared slot for f on channel f.VC; flits are readable
// from the cycle after arrival (single-cycle buffer management).
func (b *FCCB) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= b.vcs {
		return ErrBadVC
	}
	if b.occ >= b.slots {
		return ErrFull
	}
	f.ArrivedAt = now
	b.push(f, 1, 0)
	b.occ++
	return nil
}

// Pop removes the VC's head flit.
func (b *FCCB) Pop(vc int, now int64) (*flit.Flit, error) {
	if b.Front(vc, now) == nil {
		return nil, ErrEmpty
	}
	b.occ--
	return b.pop(vc, 1, 0), nil
}

// Occupied returns the total stored flit count.
func (b *FCCB) Occupied() int { return b.occ }

var _ Buffer = (*FCCB)(nil)
