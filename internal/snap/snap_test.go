package snap

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vichar/internal/flit"
)

// sealed saves what walk names, failing the test on a sticky error.
func sealed(t *testing.T, walk func(*Codec)) []byte {
	t.Helper()
	data, err := Save(walk)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// opened opens a sealed blob, failing the test if the envelope is bad.
func opened(t *testing.T, data []byte) *Codec {
	t.Helper()
	c, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reseal recomputes the CRC trailer over a (mutated) body.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return le.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// everything is one value of every primitive; walk names each once, so
// the same function is the saver and the loader.
type everything struct {
	U8    uint8
	T, F  bool
	U64   uint64
	I64   int64
	Int   int
	F64   float64
	Bytes []byte
	U64s  []uint64
	I64s  []int64
	Ints  []int
	I16   int16
	I16s  []int16
	Bools []bool
	F64s  []float64
	VarI  []int64
	VarF  []float64
	Seq   []int16
}

func (e *everything) walk(c *Codec) {
	c.Section("hdr")
	c.U8(&e.U8)
	c.Bool(&e.T)
	c.Bool(&e.F)
	c.U64(&e.U64)
	c.I64(&e.I64)
	c.Int(&e.Int)
	c.F64(&e.F64)
	c.Bytes(&e.Bytes)
	c.U64s(e.U64s)
	c.I64s(e.I64s)
	c.Ints(e.Ints)
	c.I16(&e.I16)
	c.I16s(e.I16s)
	c.Bools(e.Bools)
	c.F64s(e.F64s)
	c.I64sVar(&e.VarI)
	c.F64sVar(&e.VarF)
	c.Expect(len(e.U64s), "test: words")
	if c.Present(e.Seq != nil, "test: seq") {
		Seq(c, &e.Seq, 8, "test: seq length", c.I16)
	}
}

func TestRoundTrip(t *testing.T) {
	want := everything{
		U8: 7, T: true, U64: 1 << 60, I64: -5, Int: -123456, F64: 3.14159,
		Bytes: []byte{1, 2, 3},
		U64s:  []uint64{9, 8}, I64s: []int64{-1, 2}, Ints: []int{4, -4},
		I16: -300, I16s: []int16{32767, -1},
		Bools: []bool{true, false, true}, F64s: []float64{0.5, -0.25},
		VarI: []int64{7, -7, 70}, VarF: []float64{1.5},
		Seq: []int16{3, 2, 1},
	}
	saved := want
	data := sealed(t, saved.walk)
	if cap(data) != len(data) {
		t.Fatalf("Save sized its buffer %d for %d bytes", cap(data), len(data))
	}
	if !reflect.DeepEqual(saved, want) {
		t.Fatalf("saving wrote through its pointers:\n%+v\n%+v", saved, want)
	}

	// Construct-then-load: fixed-length slices arrive sized, variable
	// ones empty.
	got := everything{
		U64s: make([]uint64, 2), I64s: make([]int64, 2), Ints: make([]int, 2),
		I16s: make([]int16, 2), Bools: make([]bool, 3), F64s: make([]float64, 2),
		Seq: []int16{},
	}
	r := opened(t, data)
	var fs []Field
	r.Record(&fs)
	got.walk(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// The recorded fields tile the body, and re-encoding any numeric
	// one with the value it holds rebuilds the blob.
	for i, f := range fs {
		if i > 0 && f.Off != fs[i-1].End {
			t.Fatalf("field %d %+v does not follow field %d %+v", i, f, i-1, fs[i-1])
		}
		if f.Kind != Raw && f.Kind != Section && !bytes.Equal(f.Splice(data, f.Val), data) {
			t.Errorf("re-encoding field %d %+v with its own value changed the blob", i, f)
		}
	}
	if len(fs) == 0 || fs[0].Off != len(magic)+4 || fs[len(fs)-1].End != len(data)-4 {
		t.Fatalf("the recorded fields do not cover the body")
	}
}

func TestEveryByteMutationRejectedOrDetected(t *testing.T) {
	data := sealed(t, func(c *Codec) {
		c.Section("s")
		v := uint64(42)
		c.U64(&v)
		payload := []byte("payload")
		c.Bytes(&payload)
	})
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x40
		if _, err := Open(mut); err == nil {
			t.Fatalf("mutation at byte %d of %d was not rejected", i, len(data))
		}
	}
}

// A snapshot of any other format version — 3, the format before the
// slot-linked control table, was the first case pinned here; 5 stored
// the unified buffer's arrival stamps and readiness masks, which a
// version-6 reader would take for its tracker bitmap; 8 stored the
// event Seqs and packet fields version 9 derives; 9 has this layout,
// but its random-stream draw counts index math/rand's sequence, not
// the counter-based one; 10 stored ViChaR's buffer as slot IDs,
// tracker words and control-table rows, where 11 walks its queues in
// FIFO order like every organization's; 11 wrote every integer as
// eight fixed bytes, where 12 writes varints — carries a valid envelope
// (magic, checksum) but a layout this codec would misparse or a state
// it would misread; Open must refuse it by version, naming both.
func TestVersion3Rejected(t *testing.T) {
	for _, v := range []uint32{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13} {
		data := sealed(t, func(*Codec) {})
		le.PutUint32(data[len(magic):], v)
		_, err := Open(reseal(data))
		if err == nil {
			t.Fatalf("a version-%d snapshot was opened", v)
		}
		if want := fmt.Sprintf("format version %d not supported (want %d)", v, Version); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q, want it to say %q", err, want)
		}
	}
}

// Version 4, the format before the transaction engine's latency
// histogram, stored one int64 per measured transaction where version 5
// stores counts over the latency range. A version-4 transaction section
// would misparse here — its sample list read as counts, the next field
// as the smallest latency — so Open refuses the blob at the envelope.
func TestVersion4Rejected(t *testing.T) {
	data := sealed(t, func(c *Codec) {
		c.Section("txn")
		issued, retired, samples := int64(2), int64(2), []int64{31, 17}
		c.I64(&issued)
		c.I64(&retired)
		c.I64sVar(&samples)
	})
	le.PutUint32(data[len(magic):], 4)
	_, err := Open(reseal(data))
	if want := fmt.Sprintf("format version 4 not supported (want %d)", Version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open of a version-4 blob = %v, want an error saying %q", err, want)
	}
}

func TestTruncationRejected(t *testing.T) {
	data := sealed(t, func(*Codec) {})
	for i := 0; i < len(data); i++ {
		if _, err := Open(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

func TestSectionMismatch(t *testing.T) {
	r := opened(t, sealed(t, func(c *Codec) {
		c.Section("alpha")
	}))
	r.Section("beta")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("section mismatch error = %v", err)
	}
}

func TestLengthMismatchInto(t *testing.T) {
	r := opened(t, sealed(t, func(c *Codec) {
		c.U64s([]uint64{1, 2, 3})
	}))
	r.U64s(make([]uint64, 2))
	if r.Err() == nil {
		t.Fatal("length mismatch not reported")
	}
}

func TestStickyErrorStopsReads(t *testing.T) {
	r := opened(t, sealed(t, func(c *Codec) {
		one := uint64(1)
		c.U64(&one)
	}))
	var v uint64
	r.U64(&v)
	r.U64(&v) // past the end
	first := r.Err()
	if first == nil {
		t.Fatal("overread not reported")
	}
	r.U64(&v)
	r.Check(false, "a later validation failure")
	if r.Err() != first {
		t.Fatal("error was not sticky")
	}
	if v != 0 {
		t.Fatalf("a failed read yielded %d, want zero", v)
	}
}

// TestUnreadBodyRejected pins the end-of-body check: a load that stops
// short of the sealed body is refused by Finish, which counts the bytes
// of the field left unread.
func TestUnreadBodyRejected(t *testing.T) {
	a, b := uint64(1), uint64(1<<40)
	data := sealed(t, func(c *Codec) {
		c.U64(&a)
		c.U64(&b)
	})
	fs := fields(t, data, func(c *Codec) {
		c.U64(&a)
		c.U64(&b)
	})
	r := opened(t, data)
	r.U64(&a)
	want := fmt.Sprintf("%d unread bytes", fs[1].End-fs[1].Off)
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Finish after a short walk = %v, want %q", err, want)
	}
}

// fields returns the fields walk reads from data, in order.
func fields(t *testing.T, data []byte, walk func(*Codec)) []Field {
	t.Helper()
	var fs []Field
	r := opened(t, data)
	r.Record(&fs)
	walk(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestUnboundedCountsRejected pins the allocation rule: a stored count
// larger than its structural bound, or than the bytes left to read,
// fails before anything is sized by it.
func TestUnboundedCountsRejected(t *testing.T) {
	r := opened(t, sealed(t, func(c *Codec) {
		c.Len(1<<40, 1<<41, "test: count")
	}))
	if n := r.Len(0, 1<<41, "test: count"); n != 0 || r.Err() == nil {
		t.Fatalf("Len past the body = %d, %v", n, r.Err())
	}

	r = opened(t, sealed(t, func(c *Codec) {
		c.Len(3, 8, "test: count")
		pad := make([]byte, 16)
		c.Bytes(&pad)
	}))
	if n := r.Len(0, 2, "test: count"); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "test: count") {
		t.Fatalf("Len past its bound = %d, %v", n, r.Err())
	}

	// A varint element takes at least a byte, a float eight: a prefix
	// may name as many elements as the bytes left could hold, and one
	// more is refused before anything is sized by it.
	walk := func(c *Codec) {
		ints, floats := make([]int64, 4), make([]float64, 2)
		c.I64sVar(&ints)
		c.F64sVar(&floats)
	}
	data := sealed(t, walk)
	fs := fields(t, data, walk)
	ints, floats := fs[0], fs[5] // the two length prefixes
	left := func(prefix Field) uint64 { return uint64(len(data) - 4 - prefix.End) }
	for _, tc := range []struct {
		prefix Field
		n      uint64
		ok     bool
	}{
		{ints, left(ints), true},
		{ints, left(ints) + 1, false},
		{ints, 1 << 30, false},
		{floats, left(floats) / 8, true},
		{floats, left(floats)/8 + 1, false},
	} {
		r = opened(t, reseal(tc.prefix.Splice(data, tc.n)))
		var is []int64
		var fl []float64
		r.I64sVar(&is)
		sized := cap(is)
		if tc.prefix == floats {
			r.F64sVar(&fl)
			sized = cap(fl)
		}
		if err := r.Err(); (err == nil) != tc.ok || !tc.ok && sized != 0 {
			t.Fatalf("prefix at byte %d set to %d: cap %d, %v", tc.prefix.Off, tc.n, sized, err)
		}
	}
}

// TestVarints pins the integer encoding: small magnitudes of either
// sign take a byte, the extremes ten, and a varint that runs past the
// body, past ten bytes or past 64 bits is a sticky error.
func TestVarints(t *testing.T) {
	for _, tc := range []struct {
		v     int64
		bytes int
	}{{0, 1}, {-1, 1}, {63, 1}, {-64, 1}, {64, 2}, {1 << 40, 6}, {math.MaxInt64, 10}, {math.MinInt64, 10}} {
		v := tc.v
		data := sealed(t, func(c *Codec) { c.I64(&v) })
		if fs := fields(t, data, func(c *Codec) { c.I64(new(int64)) }); fs[0].End-fs[0].Off != tc.bytes || int64(fs[0].Val) != tc.v {
			t.Errorf("I64(%d): field %+v, want %d bytes", tc.v, fs[0], tc.bytes)
		}
	}
	u := uint64(math.MaxUint64)
	data := sealed(t, func(c *Codec) { c.U64(&u) })
	fs := fields(t, data, func(c *Codec) { c.U64(new(uint64)) })
	if fs[0].End-fs[0].Off != 10 || fs[0].Val != u {
		t.Fatalf("U64(MaxUint64): field %+v, want ten bytes", fs[0])
	}
	body := data[:fs[0].Off]
	for name, tc := range map[string]struct {
		varint []byte
		want   string
	}{
		"cut off":   {[]byte{0x80, 0x80}, "runs past the body"},
		"overlong":  {append(bytes.Repeat([]byte{0x80}, 10), 0), "longer than 10 bytes"},
		"overflow":  {append(bytes.Repeat([]byte{0xff}, 9), 2), "overflows 64 bits"},
		"ten bytes": {append(bytes.Repeat([]byte{0xff}, 9), 1), ""},
	} {
		r := opened(t, reseal(append(append(slices.Clone(body), tc.varint...), 0, 0, 0, 0)))
		var v uint64
		r.U64(&v)
		if err := r.Finish(); tc.want == "" && (err != nil || v != math.MaxUint64) || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || v != 0) {
			t.Errorf("%s: U64 = %d, %v; want %q", name, v, err, tc.want)
		}
	}
}

func TestFlitRefRoundTrip(t *testing.T) {
	// Packet 77 is mid-injection: flit 0 has ejected, flit 1 is in the
	// network, flit 2 is still at its source.
	p := &flit.Packet{ID: 77, Src: 1, Dst: 2, Size: 3, NextSeq: 1}
	p.Materialize()
	f := p.Flit(1)
	f.VC = 9
	f.ArrivedAt = 1234
	queued := &flit.Packet{ID: 5, Size: 2}
	record := func(c *Codec) func(*flit.Packet) {
		return func(p *flit.Packet) {
			c.U64(&p.ID)
			c.Int(&p.Size)
			c.Int(&p.NextSeq)
			c.Range(p.Size, 1, 3, "packet size")
		}
	}

	save := func(next int, refs ...*flit.Flit) []byte {
		return sealed(t, func(c *Codec) {
			c.PacketTable(record(c))
			src := p
			c.Packet(&src)
			c.Injecting(src, &next)
			for _, f := range refs {
				c.Flit(&f)
			}
			q := queued
			c.Packet(&q)
		})
	}
	load := func(data []byte) (got, none *flit.Flit, q *flit.Packet, err error) {
		r := opened(t, data)
		r.PacketTable(record(r))
		var src *flit.Packet
		var next int
		r.Packet(&src)
		if src != nil {
			r.Injecting(src, &next)
		}
		r.Flit(&got)
		r.Flit(&none)
		r.Packet(&q)
		err = r.Finish()
		return
	}

	// Restore side: the table rebuilds the packets — once each, sorted
	// by ID, however many references named them — and references
	// resolve to the flits rebuilt inside them.
	got, none, q, err := load(save(2, f, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got == f || got.Pkt.ID != 77 || got.Seq != 1 || got.VC != 9 || got.ArrivedAt != 1234 || got.Type != flit.Body {
		t.Fatalf("flit ref resolved to %+v", got)
	}
	if got != got.Pkt.Flit(1) || !got.Pkt.Pooled {
		t.Fatalf("flit %+v is not the canonical flit of a pooled record", got)
	}
	if none != nil {
		t.Fatalf("nil flit ref = %v", none)
	}
	if q == nil || q.ID != 5 || q.Materialized() {
		t.Fatalf("packet ref resolved to %+v (a queued packet must not materialize)", q)
	}

	// One flit cannot sit in two containers.
	if _, _, _, err := load(save(2, f, f)); err == nil || !strings.Contains(err.Error(), "referenced twice") {
		t.Fatalf("double reference = %v", err)
	}
	// The flits in the network are exactly those between the ejection
	// cursor and the injection cursor: neither one missing...
	if _, _, _, err := load(save(2, nil, nil)); err == nil || !strings.Contains(err.Error(), "cursors say flits 1..1") {
		t.Fatalf("missing flit = %v", err)
	}
	// ...nor one the source has not sent yet.
	if _, _, _, err := load(save(1, f, nil)); err == nil || !strings.Contains(err.Error(), "cursors say") {
		t.Fatalf("flit beyond the injection cursor = %v", err)
	}

	// A reference the table cannot resolve is an error, not a nil: the
	// table's ID and each reference's, in turn, name packet 78.
	data := save(2, f, nil)
	ids := 0
	for _, fd := range fields(t, data, func(r *Codec) {
		r.PacketTable(record(r))
		var src *flit.Packet
		r.Packet(&src)
		r.Injecting(src, new(int))
		r.Flit(new(*flit.Flit))
		r.Flit(new(*flit.Flit))
		r.Packet(new(*flit.Packet))
	}) {
		if fd.Kind != Uvarint || fd.Val != 77 {
			continue
		}
		ids++
		if _, _, _, err := load(reseal(fd.Splice(data, 78))); err == nil {
			t.Fatalf("reference/table ID mismatch at byte %d not reported", fd.Off)
		}
	}
	if ids != 3 {
		t.Fatalf("found packet 77's ID %d times (table, source, flit), want 3", ids)
	}
}
