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

// Tracer keeps the most recent events in a bounded ring buffer.
// Writes happen only via Drain in the kernel's serial phase; Events,
// Timeline and WriteJSONL copy under the same lock that guards
// drains, so they are safe from the exporter goroutine. The ring is
// allocated by the first Drain that carries an event (or a restore):
// constructing a tracer costs nothing, so building a traced simulator
// is as cheap as building an untraced one.
type Tracer struct {
	reg     *Registry // lock owner; drains and reads synchronize on it
	buf     []Event
	cap     int
	next    uint64 // total events ever appended == next Seq
	dropped uint64
}

// NewTracer returns a tracer retaining at most capacity events. The
// registry's lock orders drains against concurrent readers.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		panic("metrics: tracer capacity must be positive")
	}
	return &Tracer{reg: reg, cap: capacity}
}

// ring returns the event buffer, allocating it at full capacity on
// first use. Callers hold the registry lock.
func (t *Tracer) ring() []Event {
	if t.buf == nil {
		//vichar:alloc the one ring allocation of a run, made by the first event instead of by the constructor
		t.buf = make([]Event, 0, t.cap)
	}
	return t.buf
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return t.cap }

// Drain moves every staged event out of the recorders, in recorder
// index order, assigning each a global Seq. Serial phase only; the
// fixed drain order makes the event stream worker-count invariant.
func (t *Tracer) Drain(recs []*Recorder) {
	t.reg.mu.Lock()
	for _, rec := range recs {
		for _, e := range rec.events {
			e.Seq = t.next
			t.next++
			if len(t.buf) < t.cap {
				//vichar:alloc the ring fills to its fixed cap once, then overwrites slots in place
				t.buf = append(t.ring(), e)
			} else {
				t.buf[int(e.Seq)%t.cap] = e
				t.dropped++
			}
		}
		rec.events = rec.events[:0]
	}
	t.reg.mu.Unlock()
}

// Dropped reports how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	return t.dropped
}

// Total reports how many events were ever recorded (retained or not).
func (t *Tracer) Total() uint64 {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	return t.next
}

// Events returns the retained events in Seq order.
func (t *Tracer) Events() []Event {
	t.reg.mu.RLock()
	out := make([]Event, len(t.buf))
	copy(out, t.buf)
	t.reg.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
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
	for _, e := range t.buf {
		if e.Packet == packet {
			out = append(out, e)
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
	for _, e := range t.Events() {
		_, err := fmt.Fprintf(w,
			`{"seq":%d,"cycle":%d,"kind":%q,"packet":%d,"flit":%d,"node":%d,"port":%d,"vc":%d}`+"\n",
			e.Seq, e.Cycle, e.Kind.String(), e.Packet, e.Flit, e.Node, e.Port, e.VC)
		if err != nil {
			return err
		}
	}
	return nil
}
