// Package buffers implements the router input buffer of every
// organization the simulator compares: the conventional statically
// partitioned per-VC FIFO buffer ("GEN"), the Dynamically Allocated
// Multi-Queue (DAMQ, Tamir & Frazier 1988), the Fully Connected
// Circular Buffer (FC-CB, Ni et al. 1998) and ViChaR's Unified Buffer
// Structure — the paper's contribution. All four are one type, Queues:
// a FIFO queue per virtual channel over one arena-backed slot pool,
// set by the queue count, a per-queue depth bound, the pool size and a
// bookkeeping delay. What distinguishes ViChaR is control, not
// storage: its Token Dispenser (internal/core, held by the router's
// ViChaR credit view) decides how many of the queues are live.
package buffers

import (
	"errors"
	"math"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// Common buffer errors.
var (
	// ErrFull is returned by Write when no slot is available for the
	// flit (the caller violated credit-based flow control).
	ErrFull = errors.New("buffers: no free slot (credit violation)")
	// ErrEmpty is returned by Pop when the virtual channel holds no
	// readable flit.
	ErrEmpty = errors.New("buffers: virtual channel empty")
	// ErrBadVC is returned when a flit names a virtual channel the
	// buffer does not have.
	ErrBadVC = errors.New("buffers: virtual channel out of range")
)

// Buffer is the storage of one router input port. The router's
// per-VC state machines and the upstream credit bookkeeping enforce
// flow control; the buffer only stores flits and preserves per-VC
// FIFO order. The now parameters let architectures with multi-cycle
// bookkeeping (DAMQ) defer flit visibility. Queues is the one
// implementation; the benchmark's buffer drive is written against this
// contract.
type Buffer interface {
	// Slots returns the total flit capacity of the port.
	Slots() int
	// MaxVCs returns the number of virtual channel identifiers.
	MaxVCs() int
	// FreeSlotsFor returns how many more flits could currently be
	// written to the given VC: remaining private depth for statically
	// partitioned buffers, the shared pool headroom for unified ones.
	FreeSlotsFor(vc int) int
	// Write stores f (on channel f.VC), stamping f.ArrivedAt = now.
	Write(f *flit.Flit, now int64) error
	// Front returns the flit at the head of vc if it is readable at
	// cycle now, or nil.
	Front(vc int, now int64) *flit.Flit
	// ReadyAt returns the per-VC first-readable cycles: entry v is the
	// first cycle the head flit of v is readable, NeverReady while v is
	// empty, so for every now below NeverReady Front(v, now) != nil iff
	// ReadyAt()[v] <= now. Switch allocation compares it for the VCs
	// its active mask names, so the whole-port head poll never touches
	// flit storage. The slice is read-only and aliased for the buffer's
	// lifetime: call once, read every cycle.
	ReadyAt() []int64
	// Pop removes and returns the head of vc. It fails if Front would
	// have returned nil.
	Pop(vc int, now int64) (*flit.Flit, error)
	// Len returns the number of flits buffered on vc (including ones
	// not yet visible to readers).
	Len(vc int) int
	// Occupied returns the total number of flits currently stored.
	Occupied() int
	// State walks the buffer's mutable contents for a checkpoint;
	// wiring and shape are not stored — they re-derive from the
	// configuration at restore time, and loading needs a buffer
	// constructed with the same shape. Flit references resolve through
	// the codec; queue backing arrays are reused.
	State(c *snap.Codec)
}

// NeverReady is the first-readable stamp of an empty VC: no cycle
// count reaches it.
const NeverReady = math.MaxInt64
