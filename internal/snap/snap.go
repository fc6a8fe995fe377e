// Package snap is the binary codec behind the simulator's
// checkpoint/restore: a versioned, checksummed envelope with typed
// primitive accessors and named section markers.
//
// The format is deliberately simple — little-endian fixed-width
// fields, u32 length prefixes, a magic string and format version up
// front, and a CRC-32 trailer over everything before it — so that any
// single corrupted byte is rejected before state is loaded, and so
// the layout can evolve behind the version number.
//
// Restore follows a construct-then-load discipline: the caller
// rebuilds all wiring from the embedded config and then loads only
// mutable values into the wired structures. Reader helpers therefore
// copy *into* caller-owned slices (arena- and slab-backed arrays must
// keep their identity; live pointers alias them) instead of
// allocating replacements.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"vichar/internal/flit"
)

const (
	magic = "VCHRSNAP"
	// Version is the snapshot format version; Open rejects any other.
	// Version 2 added packet Class/Kind/Req, per-class NI streams,
	// ViChaR class reserves and the transaction-engine section.
	// Version 3 moved the event counters to their owners (router
	// activity record, NI, network core) and dropped the registry's
	// counter values and the recorder deltas, which are derived.
	// Version 4 stores the VC Control Table as its rows (slot lists)
	// instead of raw rings, per-VC credit counters as int16, VC
	// candidates as one packed byte, the ejection cursor inside each
	// packet record (the separate expect table is gone), and drops the
	// router's packed SA routes, which re-derive from the VC state.
	Version = 4
)

// Writer accumulates a snapshot payload and seals it with Finish.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the magic and version already
// emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magic...)
	w.U32(Version)
	return w
}

// Section emits a named marker; Reader.Section checks it, turning a
// writer/reader drift into an immediate, located error instead of a
// silent misparse.
func (w *Writer) Section(name string) { w.String(name) }

// U8 emits one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool emits a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 emits a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 emits a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 emits an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int emits an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 emits a float64 by its IEEE-754 bits, so sums and averages
// round-trip bit-exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes emits a length-prefixed byte slice.
func (w *Writer) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// String emits a length-prefixed string.
func (w *Writer) String(v string) {
	w.U32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// U64s emits a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}

// I64s emits a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// I16 emits a little-endian int16 (slot and VC ids, per-VC flit
// counts: everything config.MaxBufferSlots bounds).
func (w *Writer) I16(v int16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(v)) }

// I16s emits a length-prefixed []int16.
func (w *Writer) I16s(v []int16) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I16(x)
	}
}

// Ints emits a length-prefixed []int.
func (w *Writer) Ints(v []int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.Int(x)
	}
}

// Bools emits a length-prefixed []bool.
func (w *Writer) Bools(v []bool) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.Bool(x)
	}
}

// F64s emits a length-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// Flit emits a flit reference — identity as (packet ID, sequence
// index) plus the flit's two mutable fields — or an absence marker
// for nil. Flit objects are rebuilt on restore from their packet via
// flit.MakeFlits, so identity, not contents, is what travels.
func (w *Writer) Flit(f *flit.Flit) {
	if f == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U64(f.Pkt.ID)
	w.Int(f.Seq)
	w.Int(f.VC)
	w.I64(f.ArrivedAt)
}

// Packet emits a packet reference — identity only, or an absence
// marker for nil. Packet contents travel once in the network's packet
// table; everything else references them by ID.
func (w *Writer) Packet(p *flit.Packet) {
	if p == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U64(p.ID)
}

// Finish appends the CRC-32 (IEEE) of everything written and returns
// the sealed snapshot.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

// Resolver maps a flit reference (packet ID, sequence index) back to
// the canonical rebuilt flit object. Each live flit is referenced by
// exactly one container, so the resolver also lets Reader.Flit apply
// the reference's mutable fields in place.
type Resolver func(pkt uint64, seq int) (*flit.Flit, error)

// PacketResolver maps a packet ID back to the canonical rebuilt
// packet object.
type PacketResolver func(id uint64) (*flit.Packet, error)

// Reader walks a sealed snapshot. Errors are sticky: after the first
// failure every accessor returns a zero value and Err reports the
// cause, so load code can read a whole section and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open verifies the envelope — length, magic, version, checksum — and
// returns a reader positioned after the version field.
func Open(data []byte) (*Reader, error) {
	const envelope = len(magic) + 4 + 4 // magic + version + trailing crc
	if len(data) < envelope {
		return nil, fmt.Errorf("snap: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snap: bad magic %q", data[:len(magic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snap: checksum mismatch: stored %08x, computed %08x", got, want)
	}
	r := &Reader{buf: body, off: len(magic)}
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("snap: format version %d not supported (want %d)", v, Version)
	}
	return r, r.err
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Section consumes a marker and checks its name.
func (r *Reader) Section(name string) error {
	got := r.String()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.fail("expected section %q, found %q", name, got)
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte at offset %d", r.off-1)
		return false
	}
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int stored as int64.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte slice (freshly allocated).
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Len reads a u32 length prefix for a caller-managed variable-length
// sequence.
func (r *Reader) Len() int { return int(r.U32()) }

// U64sInto copies a length-prefixed []uint64 into dst, which must
// have exactly the stored length — the restore contract is that the
// constructed topology already sized every array.
func (r *Reader) U64sInto(dst []uint64) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]uint64 length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// I64sInto copies a length-prefixed []int64 into dst (exact length).
func (r *Reader) I64sInto(dst []int64) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]int64 length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I64()
	}
}

// I16 reads an int16.
func (r *Reader) I16() int16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int16(binary.LittleEndian.Uint16(b))
}

// I16sInto copies a length-prefixed []int16 into dst (exact length).
func (r *Reader) I16sInto(dst []int16) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]int16 length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I16()
	}
}

// IntsInto copies a length-prefixed []int into dst (exact length).
func (r *Reader) IntsInto(dst []int) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]int length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.Int()
	}
}

// BoolsInto copies a length-prefixed []bool into dst (exact length).
func (r *Reader) BoolsInto(dst []bool) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]bool length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.Bool()
	}
}

// F64sInto copies a length-prefixed []float64 into dst (exact length).
func (r *Reader) F64sInto(dst []float64) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("[]float64 length %d does not match constructed length %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// room fails unless n more elements of size bytes each could still be
// read — the guard that keeps a corrupted length prefix from driving a
// huge allocation in the append readers.
func (r *Reader) room(n, size int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > (len(r.buf)-r.off)/size {
		r.fail("sequence of %d elements exceeds the %d remaining bytes", n, len(r.buf)-r.off)
		return false
	}
	return true
}

// I64sAppend reads a length-prefixed []int64 appending into dst[:0],
// for scratch-backed slices whose length varies but whose backing
// array should be reused.
func (r *Reader) I64sAppend(dst []int64) []int64 {
	n := r.Len()
	if !r.room(n, 8) {
		return dst[:0]
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, r.I64())
	}
	return dst
}

// F64sAppend reads a length-prefixed []float64 appending into dst[:0].
func (r *Reader) F64sAppend(dst []float64) []float64 {
	n := r.Len()
	if !r.room(n, 8) {
		return dst[:0]
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// Packet reads a packet reference and resolves it to the canonical
// rebuilt packet. A stored absence marker yields nil.
func (r *Reader) Packet(resolve PacketResolver) (*flit.Packet, error) {
	if !r.Bool() {
		return nil, r.err
	}
	id := r.U64()
	if r.err != nil {
		return nil, r.err
	}
	p, err := resolve(id)
	if err != nil {
		r.fail("%v", err)
		return nil, r.err
	}
	return p, nil
}

// Flit reads a flit reference, resolves it to the canonical rebuilt
// flit and applies the reference's mutable fields. A stored absence
// marker yields nil.
func (r *Reader) Flit(resolve Resolver) (*flit.Flit, error) {
	if !r.Bool() {
		return nil, r.err
	}
	pkt := r.U64()
	seq := r.Int()
	vc := r.Int()
	at := r.I64()
	if r.err != nil {
		return nil, r.err
	}
	f, err := resolve(pkt, seq)
	if err != nil {
		r.fail("%v", err)
		return nil, r.err
	}
	f.VC = vc
	f.ArrivedAt = at
	return f, nil
}
