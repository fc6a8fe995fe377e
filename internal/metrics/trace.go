package metrics

import (
	"fmt"
	"io"
	"sort"
)

// EventKind classifies one step of a flit's lifecycle.
type EventKind uint8

// Flit lifecycle stages, in pipeline order. Packet-scoped stages
// (create, RC, VA grant) carry Flit == -1; flit-scoped stages carry
// the flit's sequence number within its packet.
const (
	EvCreate  EventKind = iota // packet created at the source NI
	EvInject                   // flit left the NI onto the injection link
	EvRC                       // head flit finished route computation
	EvVAGrant                  // packet won an output VC in VC allocation
	EvSAGrant                  // flit won switch allocation and crossed the crossbar
	EvLink                     // flit arrived over a router-to-router link
	EvEject                    // flit consumed at the destination NI
)

// String names the kind as it appears in the JSONL sink.
func (k EventKind) String() string {
	switch k {
	case EvCreate:
		return "create"
	case EvInject:
		return "inject"
	case EvRC:
		return "rc"
	case EvVAGrant:
		return "va_grant"
	case EvSAGrant:
		return "sa_grant"
	case EvLink:
		return "link"
	case EvEject:
		return "eject"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flit-lifecycle record. Seq is a global monotonic
// sequence number assigned at drain time in the kernel's serial
// phase, so the total event order is identical for any worker count.
type Event struct {
	Seq    uint64
	Cycle  int64
	Kind   EventKind
	Packet uint64
	Flit   int // flit index within the packet; -1 for packet-scoped events
	Node   int // router/NI where the event happened
	Port   int // port involved; -1 when not applicable
	VC     int // virtual channel involved; -1 when not applicable
}

// record is an Event as the recorders and the ring hold it: 24 bytes
// for the 64 of an Event. The fields are as narrow as Config.Validate
// lets their values be (config.MaxPacketSize, MaxNodes and
// MaxBufferSlots; a router has five ports), and Seq is not stored: a
// staged event has none yet, and ring slot i holds the newest event
// whose Seq is i modulo the capacity.
type record struct {
	cycle  int64
	packet uint64
	flit   int16
	node   int16
	vc     int16
	port   int8
	kind   EventKind
}

// pack narrows e to its stored form, leaving Seq behind.
func pack(e Event) record {
	return record{
		cycle: e.Cycle, packet: e.Packet, flit: int16(e.Flit), node: int16(e.Node),
		vc: int16(e.VC), port: int8(e.Port), kind: e.Kind,
	}
}

// event widens r back to the public Event, with the Seq its position
// implies.
func (r record) event(seq uint64) Event {
	return Event{
		Seq: seq, Cycle: r.cycle, Kind: r.kind, Packet: r.packet,
		Flit: int(r.flit), Node: int(r.node), Port: int(r.port), VC: int(r.vc),
	}
}

// Tracer keeps the most recent events in a bounded ring buffer.
// Writes happen only via Drain in the kernel's serial phase; Events,
// Timeline and WriteJSONL copy under the same lock that guards
// drains, so they are safe from the exporter goroutine. The ring is
// allocated by the first Drain that carries an event (or a restore):
// constructing a tracer costs nothing, so building a traced simulator
// is as cheap as building an untraced one.
type Tracer struct {
	reg  *Registry // lock owner; drains and reads synchronize on it
	buf  []record  // the first min(next, cap) slots of the ring; slot i holds Seq ≡ i (mod cap)
	cap  int
	next uint64 // total events ever appended == next Seq
}

// NewTracer returns a tracer retaining at most capacity events. The
// registry's lock orders drains against concurrent readers.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		panic("metrics: tracer capacity must be positive")
	}
	return &Tracer{reg: reg, cap: capacity}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return t.cap }

// Drain moves every staged event out of the recorders, in recorder
// index order, which is the order of their Seqs. Serial phase only;
// the fixed drain order makes the event stream worker-count invariant.
func (t *Tracer) Drain(recs []*Recorder) {
	t.reg.mu.Lock()
	for _, rec := range recs {
		t.push(rec.events)
		rec.events = rec.events[:0]
	}
	t.reg.mu.Unlock()
}

// push appends a batch to the ring in at most two copies. Of a batch
// longer than the ring only the last cap events survive, each in the
// slot its Seq names.
func (t *Tracer) push(batch []record) {
	keep := batch[max(0, len(batch)-t.cap):]
	t.next += uint64(len(batch))
	at := int((t.next - uint64(len(keep))) % uint64(t.cap))
	// Until the ring has filled once, at is its length: growing it is a
	// reslice of the full-capacity allocation.
	if end := min(at+len(keep), t.cap); len(t.buf) < end {
		if t.buf == nil {
			//vichar:alloc the one ring allocation of a run, made by the first event instead of by the constructor
			t.buf = make([]record, 0, t.cap)
		}
		t.buf = t.buf[:end]
	}
	n := copy(t.buf[at:], keep)
	copy(t.buf, keep[n:])
}

// Dropped reports how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	return t.next - uint64(len(t.buf))
}

// Total reports how many events were ever recorded (retained or not).
func (t *Tracer) Total() uint64 {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	return t.next
}

// seqAt returns the Seq of the event in ring slot i: the newest one
// below next that is i modulo the capacity. Callers hold the lock.
func (t *Tracer) seqAt(i int) uint64 {
	seq := t.next - t.next%uint64(t.cap) + uint64(i)
	if seq >= t.next {
		seq -= uint64(t.cap)
	}
	return seq
}

// retained copies the ring, oldest event first, and returns it with
// that event's Seq; the rest follow in Seq order. The copy is of
// packed records, so a reader holds the lock for two copies and
// widens or renders after releasing it.
func (t *Tracer) retained() ([]record, uint64) {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	out := make([]record, len(t.buf))
	// The oldest event sits where the next one will land; before the
	// ring has filled that is its end, and the first copy is empty.
	oldest := int(t.next % uint64(t.cap))
	n := copy(out, t.buf[oldest:])
	copy(out[n:], t.buf)
	return out, t.next - uint64(len(t.buf))
}

// Events returns the retained events in Seq order.
func (t *Tracer) Events() []Event {
	ring, first := t.retained()
	out := make([]Event, len(ring))
	for i, r := range ring {
		out[i] = r.event(first + uint64(i))
	}
	return out
}

// Timeline reconstructs one packet's retained lifecycle: every event
// that names the packet, in chronological order — by cycle, with Seq
// breaking ties. (Seq alone orders events by drain batch, within
// which the serial-phase recorder precedes all node recorders, so it
// is not chronological across recorders.) An empty slice means the
// packet's events were never recorded or have been evicted.
func (t *Tracer) Timeline(packet uint64) []Event {
	var out []Event
	t.reg.mu.RLock()
	for i, r := range t.buf {
		if r.packet == packet {
			out = append(out, r.event(t.seqAt(i)))
		}
	}
	t.reg.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL renders the retained events as one JSON object per line,
// in Seq order. The fields are rendered by hand in a fixed key order
// so the sink is byte-deterministic.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	ring, first := t.retained()
	for i, r := range ring {
		_, err := fmt.Fprintf(w,
			`{"seq":%d,"cycle":%d,"kind":%q,"packet":%d,"flit":%d,"node":%d,"port":%d,"vc":%d}`+"\n",
			first+uint64(i), r.cycle, r.kind.String(), r.packet, r.flit, r.node, r.port, r.vc)
		if err != nil {
			return err
		}
	}
	return nil
}
