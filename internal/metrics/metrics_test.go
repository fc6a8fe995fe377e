package metrics

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"vichar/internal/snap"
)

// The registry is a view: series register by index, Store overwrites
// every value with the owner's current absolute count, and nothing is
// visible to readers before the first store.
func TestRegistryStoreAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "help a", Labels{{"node", "0"}})
	reg.Counter("m_total", "help a", Labels{{"node", "1"}})
	reg.Counter("other_total", "help b", nil)

	// The owner's counters, as the kernel would hold them.
	owned := []uint64{5, 1, 7}
	fill := func(vals []uint64) {
		if len(vals) != len(owned) {
			t.Fatalf("store pass got %d series, want %d", len(vals), len(owned))
		}
		copy(vals, owned)
	}

	if got := reg.Snapshot().Sum("m_total"); got != 0 {
		t.Fatalf("pre-store sum = %d, want 0", got)
	}
	reg.Store(fill)
	s := reg.Snapshot()
	if got := s.Sum("m_total"); got != 6 {
		t.Fatalf("m_total = %d, want 6", got)
	}
	if got := s.Sum("other_total"); got != 7 {
		t.Fatalf("other_total = %d, want 7", got)
	}
	if c := s.Counters[1]; c.Name != "m_total" || c.Labels.String() != `node="1"` || c.Value != 1 {
		t.Fatalf("series 1 = %+v, want m_total{node=\"1\"} 1 (registration order)", c)
	}

	// Store writes absolute values: a second pass with no new events
	// must not double-count, and a new event shows up as-is.
	reg.Store(fill)
	if got := reg.Snapshot().Sum("m_total"); got != 6 {
		t.Fatalf("after repeated store m_total = %d, want 6", got)
	}
	owned[0]++
	reg.Store(fill)
	if got := reg.Snapshot().Sum("m_total"); got != 7 {
		t.Fatalf("after an increment m_total = %d, want 7", got)
	}
}

func TestGauges(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g_now", "current cycle", nil)
	reg.SetGauge(g, 42)
	v, ok := reg.Snapshot().Gauge("g_now")
	if !ok || v != 42 {
		t.Fatalf("gauge = (%g, %v), want (42, true)", v, ok)
	}
	if _, ok := reg.Snapshot().Gauge("missing"); ok {
		t.Fatal("missing gauge reported present")
	}
}

// The disabled path (nil recorder) and the enabled steady-state path
// (event staging and draining after the buffers warmed up) must not
// allocate: StageEvent sits on the router's per-cycle hot path.
func TestHotPathDoesNotAllocate(t *testing.T) {
	var off *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		off.StageEvent(Event{Cycle: 1, Kind: EvRC, Packet: 1, Flit: -1, Port: -1})
	}); n != 0 {
		t.Fatalf("nil recorder path allocates %.1f/op", n)
	}

	reg := NewRegistry()
	rec := &Recorder{}
	tr := NewTracer(reg, 64)
	recs := []*Recorder{rec}
	// Warm the staging slice and the ring once.
	for i := 0; i < 100; i++ {
		rec.StageEvent(Event{Cycle: int64(i), Kind: EvRC, Packet: uint64(i), Flit: -1, Port: -1})
	}
	tr.Drain(recs)
	if n := testing.AllocsPerRun(1000, func() {
		rec.StageEvent(Event{Cycle: 5, Kind: EvSAGrant, Packet: 9, Port: 1, VC: 2})
		tr.Drain(recs)
	}); n != 0 {
		t.Fatalf("enabled steady-state path allocates %.1f/op", n)
	}
}

func TestTracerRingAndTimeline(t *testing.T) {
	reg := NewRegistry()
	rec := &Recorder{}
	tr := NewTracer(reg, 4)
	for i := 0; i < 6; i++ {
		rec.StageEvent(Event{Cycle: int64(i), Kind: EvLink, Packet: uint64(i % 2), Flit: 0, Node: i})
	}
	tr.Drain([]*Recorder{rec})
	if rec.Pending() != 0 {
		t.Fatalf("drain left %d staged events", rec.Pending())
	}
	if tr.Total() != 6 || tr.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(2 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
	}
	tl := tr.Timeline(1)
	if len(tl) != 2 || tl[0].Seq != 3 || tl[1].Seq != 5 {
		t.Fatalf("timeline(1) = %+v, want retained seqs 3 and 5", tl)
	}
}

// The ring — 24 bytes per retained event, 1.5 MiB at the benchmark's
// 65536 — is allocated by the first drained event, not by NewTracer:
// constructing a traced simulator must cost what an untraced one does.
func TestTracerRingAllocatedOnFirstEvent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1<<16)
	rec := &Recorder{}
	tr.Drain([]*Recorder{rec})
	if tr.buf != nil {
		t.Fatalf("ring of %d events allocated before any event was recorded", cap(tr.buf))
	}
	if len(tr.Events()) != 0 || tr.Timeline(1) != nil {
		t.Fatal("an empty tracer reported events")
	}
	rec.StageEvent(Event{Cycle: 1, Kind: EvCreate, Packet: 1, Flit: -1})
	tr.Drain([]*Recorder{rec})
	if cap(tr.buf) != tr.Cap() || len(tr.Events()) != 1 {
		t.Fatalf("after the first event: ring cap %d, %d events; want cap %d, 1 event", cap(tr.buf), len(tr.Events()), tr.Cap())
	}
}

// The stored record is what the ring's and the recorders' footprints
// are multiples of; a field added or widened past 24 bytes would give
// back what packing it bought.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 24 {
		t.Fatalf("stored event record is %d bytes, want at most 24", got)
	}
	e := Event{Seq: 9, Cycle: 1 << 40, Kind: EvEject, Packet: 1 << 50, Flit: 1<<15 - 1, Node: 1<<15 - 1, Port: 4, VC: 1<<15 - 2}
	if got := pack(e).event(e.Seq); got != e {
		t.Fatalf("an event at the top of every field's range came back as %+v, want %+v", got, e)
	}
	e = Event{Flit: -1, Port: -1, VC: -1}
	if got := pack(e).event(0); got != e {
		t.Fatalf("an event with every optional field absent came back as %+v, want %+v", got, e)
	}
}

// Drain's wrap-aware bulk copies against the obvious model: append
// every event, Seq is the index, the last cap are retained. Each drain
// lists how many events each recorder staged; the named shapes are the
// ones a copy can get wrong, the rest are random and leave some
// recorders empty.
func TestTracerMatchesNaiveRing(t *testing.T) {
	cases := []struct {
		name   string
		cap    int
		drains [][]int // nil = random
	}{
		{"nothing recorded", 4, [][]int{{0, 0}, {}}},
		{"cap 1", 1, nil},
		{"cap 3", 3, nil},
		{"cap 4", 4, nil},
		{"cap 65536", 1 << 16, nil},
		{"batch ends on the wrap", 4, [][]int{{2}, {2}, {4}}},
		{"batch straddles the wrap", 4, [][]int{{3}, {3}}},
		{"second recorder straddles the wrap", 4, [][]int{{3, 0, 3}}},
		{"batch straddles the wrap of a filling ring", 3, [][]int{{2}, {2}}},
		{"batch larger than an empty ring", 4, [][]int{{11}}},
		{"batch larger than a wrapped ring", 4, [][]int{{6}, {9}}},
		{"batch of twice the ring", 3, [][]int{{1}, {6}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.cap)))
			drains := c.drains
			for i := 0; c.drains == nil && i < 40; i++ {
				most := 2 * min(c.cap, 2048)
				drains = append(drains, []int{rng.Intn(most + 1), 0, rng.Intn(most + 1), rng.Intn(2)})
			}
			tr := NewTracer(NewRegistry(), c.cap)
			recs := []*Recorder{{}, {}, {}, {}}
			var model []Event
			for _, staged := range drains {
				// Recorders drain in index order, so staging in that order
				// makes the model's index the Seq.
				for i, n := range staged {
					for ; n > 0; n-- {
						e := Event{
							Cycle: int64(rng.Intn(4)), Kind: EventKind(rng.Intn(7)), Packet: uint64(rng.Intn(5)),
							Flit: rng.Intn(5) - 1, Node: i, Port: rng.Intn(6) - 1, VC: rng.Intn(17) - 1,
						}
						recs[i].StageEvent(e)
						e.Seq = uint64(len(model))
						model = append(model, e)
					}
				}
				tr.Drain(recs)
				want := model[max(0, len(model)-c.cap):]
				if got := tr.Events(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("after %d events Events() = %d events %+v, want the last %d: %+v", len(model), len(got), head(got), len(want), head(want))
				}
			}
			want := model[max(0, len(model)-c.cap):]
			if tr.Total() != uint64(len(model)) || tr.Dropped() != uint64(len(model)-len(want)) {
				t.Fatalf("total/dropped = %d/%d, want %d/%d", tr.Total(), tr.Dropped(), len(model), len(model)-len(want))
			}
			for packet := uint64(0); packet < 6; packet++ {
				var tl []Event
				for _, e := range want {
					if e.Packet == packet {
						tl = append(tl, e)
					}
				}
				sort.SliceStable(tl, func(i, j int) bool { return tl[i].Cycle < tl[j].Cycle })
				if got := tr.Timeline(packet); !reflect.DeepEqual(got, tl) {
					t.Fatalf("Timeline(%d) = %+v, want %+v", packet, head(got), head(tl))
				}
			}
			var got, naive strings.Builder
			if err := tr.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			for _, e := range want {
				fmt.Fprintf(&naive, `{"seq":%d,"cycle":%d,"kind":%q,"packet":%d,"flit":%d,"node":%d,"port":%d,"vc":%d}`+"\n",
					e.Seq, e.Cycle, e.Kind.String(), e.Packet, e.Flit, e.Node, e.Port, e.VC)
			}
			if got.String() != naive.String() {
				t.Fatalf("JSONL differs from the model's rendering:\n%.400s\nwant:\n%.400s", got.String(), naive.String())
			}

			// A checkpoint carries the ring slot by slot, without Seqs; a
			// restored tracer reports the same events, each with the Seq
			// its slot implies.
			blob, err := snap.Save(tr.State)
			if err != nil {
				t.Fatal(err)
			}
			restored := NewTracer(NewRegistry(), c.cap)
			load, err := snap.Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			if restored.State(load); load.Finish() != nil {
				t.Fatalf("restoring the tracer: %v", load.Finish())
			}
			if got := restored.Events(); !reflect.DeepEqual(got, tr.Events()) || restored.Dropped() != tr.Dropped() {
				t.Fatalf("restored tracer holds %d events (%d dropped), the saved one %d (%d)", len(got), restored.Dropped(), len(want), tr.Dropped())
			}
		})
	}
}

// The exporter goroutine reads while the kernel drains. Every read
// must see a whole number of batches: consecutive Seqs ending at a
// total the drain had reached, never a ring caught between its two
// copies. Run under -race by CI.
func TestTracerReadsDuringDrain(t *testing.T) {
	const batch, drains = 5, 400
	tr := NewTracer(NewRegistry(), 16) // not a multiple of the batch: drains straddle the wrap
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := &Recorder{}
		for i := 0; i < drains; i++ {
			for j := 0; j < batch; j++ {
				rec.StageEvent(Event{Cycle: int64(i), Packet: uint64(i*batch + j)})
			}
			tr.Drain([]*Recorder{rec})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false // and read once more, after the last drain
		default:
		}
		evs := tr.Events()
		for i, e := range evs {
			if e.Seq != evs[0].Seq+uint64(i) || e.Packet != e.Seq {
				t.Fatalf("event %d of a concurrent read has seq %d, packet %d; the first has seq %d", i, e.Seq, e.Packet, evs[0].Seq)
			}
		}
		if n := len(evs); n > 0 && (evs[n-1].Seq+1)%batch != 0 {
			t.Fatalf("a concurrent read ends at seq %d, inside a batch of %d", evs[n-1].Seq, batch)
		}
		if tl := tr.Timeline(7); len(tl) > 1 {
			t.Fatalf("Timeline(7) = %+v, want the one event of packet 7 or none", tl)
		}
		if err := tr.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Total() != batch*drains || tr.Dropped() != batch*drains-16 {
		t.Fatalf("total/dropped = %d/%d, want %d/%d", tr.Total(), tr.Dropped(), batch*drains, batch*drains-16)
	}
}

// head trims an event list for a failure message.
func head(evs []Event) []Event { return evs[:min(len(evs), 8)] }

func TestTracerSeqOrderAcrossRecorders(t *testing.T) {
	reg := NewRegistry()
	r1 := &Recorder{}
	r2 := &Recorder{}
	tr := NewTracer(reg, 16)
	r2.StageEvent(Event{Cycle: 1, Kind: EvInject, Node: 2})
	r1.StageEvent(Event{Cycle: 1, Kind: EvInject, Node: 1})
	tr.Drain([]*Recorder{r1, r2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Node != 1 || evs[1].Node != 2 {
		t.Fatalf("drain order not recorder-index order: %+v", evs)
	}
}

func TestWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	rec := &Recorder{}
	tr := NewTracer(reg, 8)
	rec.StageEvent(Event{Cycle: 3, Kind: EvEject, Packet: 7, Flit: 1, Node: 4, Port: -1, VC: 0})
	tr.Drain([]*Recorder{rec})
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"cycle":3,"kind":"eject","packet":7,"flit":1,"node":4,"port":-1,"vc":0}` + "\n"
	if b.String() != want {
		t.Fatalf("JSONL = %q, want %q", b.String(), want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vichar_z_total", "the z metric", Labels{{"router", "3"}, {"port", "N"}})
	reg.Gauge("vichar_a_gauge", "the a gauge", nil)
	reg.Store(func(vals []uint64) { vals[0] = 12 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# HELP vichar_a_gauge the a gauge\n" +
		"# TYPE vichar_a_gauge gauge\n" +
		"vichar_a_gauge 0\n" +
		"# HELP vichar_z_total the z metric\n" +
		"# TYPE vichar_z_total counter\n" +
		`vichar_z_total{router="3",port="N"} 12` + "\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerServesMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	rec := &Recorder{}
	reg.Counter("vichar_h_total", "handler test", nil)
	tr := NewTracer(reg, 8)
	rec.StageEvent(Event{Cycle: 1, Kind: EvCreate, Packet: 1, Flit: -1, Node: 0, Port: -1, VC: -1})
	reg.Store(func(vals []uint64) { vals[0] = 1 })
	tr.Drain([]*Recorder{rec})

	get := func(h http.Handler, path string) (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr.Code, rr.Body.String()
	}

	traced := Handler(reg, tr)
	if code, body := get(traced, "/"); code != http.StatusOK || !strings.Contains(body, "vichar_h_total 1") {
		t.Fatalf("GET / = %d, body missing counter:\n%s", code, body)
	}
	if code, body := get(traced, "/trace"); code != http.StatusOK || !strings.Contains(body, `"kind":"create"`) {
		t.Fatalf("GET /trace = %d, body missing event:\n%s", code, body)
	}
	if code, _ := get(traced, "/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}

	// Without a tracer there is no trace endpoint: /trace must not fall
	// through to the registry body.
	untraced := Handler(reg, nil)
	if code, body := get(untraced, "/"); code != http.StatusOK || !strings.Contains(body, "vichar_h_total 1") {
		t.Fatalf("tracer-less GET / = %d, body missing counter:\n%s", code, body)
	}
	if code, body := get(untraced, "/trace"); code != http.StatusNotFound {
		t.Fatalf("tracer-less GET /trace = %d, want 404; body:\n%s", code, body)
	}
}
