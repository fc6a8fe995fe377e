// Package flit defines the atomic units of flow control exchanged by
// NoC routers: flits, the packets they compose, and the credits that
// implement backpressure.
//
// A packet is decomposed into a head flit, zero or more body flits and
// a tail flit (a single-flit packet is marked as both head and tail).
// Flits are the granularity at which buffers and channels are
// allocated under wormhole flow control; packets are the granularity
// at which virtual channels are allocated.
package flit

import "fmt"

// Type classifies a flit's position within its packet.
type Type uint8

const (
	// Head is the first flit of a packet. It carries routing
	// information and triggers route computation (RC) and virtual
	// channel allocation (VA) in each router it enters.
	Head Type = iota
	// Body is a middle (data) flit. It inherits the route and VC of
	// its head.
	Body
	// Tail is the last flit of a packet. Its departure releases the
	// virtual channel that the packet holds.
	Tail
	// HeadTail marks a single-flit packet, which is simultaneously
	// head and tail.
	HeadTail
)

// String returns a one-letter mnemonic matching the paper's figures
// (H = head, D = data/body, T = tail).
func (t Type) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "D"
	case Tail:
		return "T"
	case HeadTail:
		return "HT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsHead reports whether the flit type opens a packet.
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit type closes a packet.
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// Packet carries the simulation-level metadata shared by all flits of
// one message. Flits point back at their packet, so per-packet fields
// (destination, timestamps) are stored exactly once.
//
// A Packet is also the record the network recycles: it owns the
// backing array of its own flits (Materialize), so a packet the
// network draws from its free list carries its flit storage with it
// and a steady-state run allocates neither packets nor flits.
type Packet struct {
	// ID is unique across one simulation run.
	ID uint64
	// Src and Dst are node identifiers in the network's topology.
	Src, Dst int
	// Size is the number of flits in the packet.
	Size int
	// CreatedAt is the cycle the packet entered its source queue.
	CreatedAt int64
	// InjectedAt is the cycle the head flit left the source queue and
	// entered the network proper.
	InjectedAt int64
	// EjectedAt is the cycle the tail flit reached the destination's
	// processing element. Zero until ejection.
	EjectedAt int64
	// Escaped is set when an adaptively routed packet has been
	// re-channelled onto an escape virtual channel after a deadlock
	// timeout; from then on it routes deterministically.
	Escaped bool
	// Class is the packet's virtual-channel class. Fire-and-forget
	// traffic always carries class 0; the transaction layer maps
	// request messages to class 0 and response messages to class 1 so
	// the VC allocators keep the two on disjoint channel partitions.
	Class uint8
	// Kind is the transaction-layer message kind (txn package
	// constants); 0 for plain fire-and-forget packets.
	Kind uint8
	// Req is the packet ID of the request this packet responds to
	// (response kinds only; 0 otherwise).
	Req uint64
	// NextSeq is the sink's ejection cursor: the sequence number of the
	// next flit the destination must observe (Size once the tail has
	// ejected). The end-to-end ordering check advances it.
	NextSeq int
	// Pooled marks a packet drawn from the network's free list: it is
	// reused for a later packet once its tail has ejected, so no
	// pointer to it may be held past that cycle. Packets handed to a
	// caller (Network.InjectPacket, Simulator.Inject) are never pooled.
	Pooled bool

	// flits is the packet's own flit storage, kept across Reset.
	flits []Flit
}

// Reset clears the packet for reuse as a new message, keeping its
// flit storage.
func (p *Packet) Reset() { *p = Packet{flits: p.flits[:0]} }

// Materialize builds the packet's Size flits in its own storage
// (allocating only when the storage is smaller than Size) exactly as
// MakeFlits would: same types and sequence numbers, VC and ArrivedAt
// zero. Flit(i) then addresses them.
func (p *Packet) Materialize() {
	if cap(p.flits) < p.Size {
		p.flits = make([]Flit, p.Size)
	}
	p.flits = p.flits[:p.Size]
	for i := range p.flits {
		p.flits[i] = Flit{Pkt: p, Type: typeAt(i, p.Size), Seq: i}
	}
}

// Materialized reports whether Materialize has built the flits.
func (p *Packet) Materialized() bool { return len(p.flits) > 0 }

// Flit returns flit i of a materialized packet.
func (p *Packet) Flit(i int) *Flit { return &p.flits[i] }

// typeAt classifies flit i of a size-flit packet.
func typeAt(i, size int) Type {
	switch {
	case size == 1:
		return HeadTail
	case i == 0:
		return Head
	case i == size-1:
		return Tail
	}
	return Body
}

// Latency returns the packet's network latency in cycles: creation (at
// the source queue) to tail ejection. It is only meaningful after the
// packet has been ejected.
func (p *Packet) Latency() int64 { return p.EjectedAt - p.CreatedAt }

// Hops returns the minimal hop distance this packet must travel given
// X and Y displacement; it is a convenience for tests and stats and
// assumes a mesh.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d (%d flits)", p.ID, p.Src, p.Dst, p.Size)
}

// Flit is a single flow-control unit in transit. A flit's VC field is
// rewritten at every hop: it names the virtual channel the flit
// occupies at the input port it is (or will next be) buffered at.
type Flit struct {
	Pkt  *Packet
	Type Type
	// Seq is the flit's index within its packet (head == 0).
	Seq int
	// VC is the virtual channel at the current/next input port,
	// assigned by the upstream router's VC allocator.
	VC int
	// ArrivedAt is the cycle the flit was written into the current
	// input buffer; used to enforce per-stage pipeline timing.
	ArrivedAt int64
}

// IsHead reports whether this flit opens its packet.
func (f *Flit) IsHead() bool { return f.Type.IsHead() }

// IsTail reports whether this flit closes its packet.
func (f *Flit) IsTail() bool { return f.Type.IsTail() }

// Follows reports whether f may sit directly behind prev in one
// virtual channel's FIFO: the next flit of prev's packet, or the head
// of another once prev closed its own.
func (f *Flit) Follows(prev *Flit) bool {
	if f.Pkt == prev.Pkt {
		return f.Seq == prev.Seq+1
	}
	return prev.IsTail() && f.Seq == 0
}

func (f *Flit) String() string {
	return fmt.Sprintf("%s[%d] of %s vc=%d", f.Type, f.Seq, f.Pkt, f.VC)
}

// MakeFlits decomposes a packet into a freshly allocated flit
// sequence. The returned flits share the packet pointer; VC and
// ArrivedAt are zero until the network assigns them. The network
// itself uses Materialize; MakeFlits serves standalone drivers (tests,
// the benchmark's layer drives).
func MakeFlits(p *Packet) []*Flit {
	if p.Size <= 0 {
		return nil
	}
	fs := make([]*Flit, p.Size)
	for i := range fs {
		fs[i] = &Flit{Pkt: p, Type: typeAt(i, p.Size), Seq: i}
	}
	return fs
}

// Credit is the backpressure message a router returns upstream when it
// frees buffer resources.
type Credit struct {
	// VC identifies the virtual channel whose flit departed. For
	// statically partitioned buffers the freed slot belongs to this
	// VC; for unified buffers the slot returns to the shared pool and
	// VC only matters when ReleaseVC is set.
	VC int
	// ReleaseVC is set when the departing flit was a tail: the
	// virtual channel itself is free again and, for ViChaR, its token
	// returns to the dispenser.
	ReleaseVC bool
}
