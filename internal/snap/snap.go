// Package snap is the binary codec behind the simulator's
// checkpoint/restore: a versioned, checksummed envelope walked by one
// direction-aware Codec with pointer-taking primitives and named
// section markers.
//
// The format is deliberately simple — integers as varints (zigzag for
// signed ones, so -1 and small negatives take a byte), floats as their
// eight little-endian IEEE-754 bytes, varint length prefixes, a magic
// string and format version up front, and a CRC-32 trailer over
// everything before it — so that any single corrupted byte is rejected
// before state is loaded, and so the layout can evolve behind the
// version number. A snapshot costs what it holds: most stored counts,
// cycles and latencies are small, and take one to three bytes.
//
// Every stateful type has exactly one State(c *Codec) method that
// names its serialized fields once, in order. Saving, the codec reads
// through the pointers it is handed and appends; loading, it writes
// the stored values through the same pointers. A field's position,
// width and range check therefore exist once, and the two directions
// cannot drift.
//
// Restore follows a construct-then-load discipline: the caller
// rebuilds all wiring from the embedded config and then walks the
// wired structures, so values land *in* caller-owned slices (arena-
// and slab-backed arrays must keep their identity; live pointers
// alias them) instead of in freshly allocated replacements.
package snap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"vichar/internal/flit"
)

const (
	magic = "VCHRSNAP"
	// Version is the snapshot format version; Open rejects any other,
	// so a blob loads only into a build of the format that cut it. Any
	// change to a State walk or to the wire format bumps it.
	Version = 12
)

var le = binary.LittleEndian

// Codec walks a snapshot body in one direction: Save hands its walk one
// that saves, Open returns one that loads. Errors are sticky — truncation, a
// mismatched marker and a failed Check alike: after the first one a
// loading codec yields zero values and Err reports the cause, so a
// State method walks all its fields and its caller checks once.
type Codec struct {
	buf     []byte
	off     int // loading: read cursor into buf
	loading bool
	err     error

	// Saving takes two passes of the same walk (Save): sizing counts
	// the bytes in n and writes nothing, so the second pass appends
	// into a buffer of exactly that size.
	sizing bool
	n      int

	// Packets travel once, in a table; every other occurrence of a
	// packet or flit is a reference into it. The sizing pass gathers in
	// refs the packet of every reference the walk makes, so the writing
	// pass has the table — sorted, once each — when it reaches
	// PacketTable. Loading, PacketTable fills pkts and references
	// resolve against it; inNet tracks, for every packet whose flits
	// were rebuilt, which of them references have claimed.
	record func(*flit.Packet)
	refs   []*flit.Packet
	pkts   map[uint64]*flit.Packet
	inNet  map[*flit.Packet]*inFlight

	// fields, when a loading codec records (Record), receives every
	// field the walk reads.
	fields *[]Field
}

// inFlight is the load-side account of one packet with flits in the
// network: which flits some container claimed (each live flit sits in
// exactly one), and next, the first flit its source has yet to inject
// (Size once all are in). Finish checks the claimed ones are exactly
// flits NextSeq..next-1 — what has entered and not yet ejected.
type inFlight struct {
	claimed []bool
	n, next int
}

// Save serializes what walk names and returns the sealed snapshot:
// magic and version, the walk, and the CRC-32 (IEEE) of everything
// before it. It runs walk twice over one codec — a sizing pass that
// counts the bytes and gathers the packets the walk references, then a
// writing pass into a buffer of exactly that size, which finds the
// packet table ready where PacketTable stands — so a save neither grows
// a buffer nor moves what it wrote. walk must name the same fields both
// times; State methods do, since saving reads and never writes (the
// size is only a capacity: the blob is what the second pass appended).
func Save(walk func(*Codec)) ([]byte, error) {
	c := &Codec{sizing: true}
	for range 2 {
		raw(c, magic)
		c.u32(Version)
		if walk(c); c.err != nil {
			return nil, c.err
		}
		if c.sizing {
			slices.SortFunc(c.refs, func(a, b *flit.Packet) int { return cmp.Compare(a.ID, b.ID) })
			if c.refs = slices.Compact(c.refs); c.record != nil {
				c.table()
			}
			c.sizing, c.buf = false, make([]byte, 0, c.n+4)
		}
	}
	return le.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf)), nil
}

// Open verifies the envelope — length, magic, version, checksum — and
// returns a loading codec positioned after the version field.
func Open(data []byte) (*Codec, error) {
	const envelope = len(magic) + 4 + 4 // magic + version + trailing crc
	if len(data) < envelope {
		return nil, fmt.Errorf("snap: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snap: bad magic %q", data[:len(magic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := le.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snap: checksum mismatch: stored %08x, computed %08x", got, want)
	}
	c := &Codec{buf: body, off: len(magic), loading: true}
	if v := c.u32(0); v != Version {
		return nil, fmt.Errorf("snap: format version %d not supported (want %d)", v, Version)
	}
	return c, c.err
}

// Finish ends a load: it fails unless the walk consumed the body
// exactly and every packet's flits in the network are the ones its
// cursors say.
func (c *Codec) Finish() error {
	if c.off != len(c.buf) {
		c.Failf("snap: %d unread bytes after the last section", len(c.buf)-c.off)
	}
	for p, a := range c.inNet {
		// All of a's n claims lie below next (the loop's bound) or
		// the count comes up short.
		claimed := 0
		for seq := p.NextSeq; seq < a.next && a.claimed[seq]; seq++ {
			claimed++
		}
		if claimed != a.n || claimed != a.next-p.NextSeq {
			c.Failf("snap: packet %d has %d flits in the network, but cursors say flits %d..%d are", p.ID, a.n, p.NextSeq, a.next-1)
		}
	}
	return c.err
}

// Loading reports the walk's direction. State methods consult it only
// to rebuild what the format leaves out — derived stamps, counts and
// ring layouts — never to choose which fields to walk.
func (c *Codec) Loading() bool { return c.loading }

// Err returns the first error encountered, if any.
func (c *Codec) Err() error { return c.err }

// Failf records a validation failure unless an earlier error already
// stands.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Check records a validation failure, naming the offending field,
// unless ok holds; it runs in both directions, so a save also proves
// its state would load.
func (c *Codec) Check(ok bool, format string, args ...any) {
	if !ok {
		c.Failf(format, args...)
	}
}

// Range is the Check most fields need — lo <= v <= hi — with the
// message built only on failure, so walks can afford one per element.
func (c *Codec) Range(v, lo, hi int, what string) {
	if v < lo || v > hi {
		c.Failf("%s: %d in snapshot, want %d..%d", what, v, lo, hi)
	}
}

// Mask fails unless a loaded bitmap of n valid bits has every spare
// high bit of its last word clear: scans iterate set bits and index
// by them.
func (c *Codec) Mask(words []uint64, n int, what string) {
	if r := uint(n) & 63; r != 0 && len(words) > 0 && words[len(words)-1]>>r != 0 {
		c.Failf("%s: snapshot sets bits beyond the %d valid ones", what, n)
	}
}

// Room is the number of body bytes still unread — the bound on any
// stored count or size that nothing in the constructed structure
// limits. A saving codec has no such limit.
func (c *Codec) Room() int {
	if !c.loading {
		return math.MaxInt
	}
	return len(c.buf) - c.off
}

// take returns the next n body bytes, or nil after an error.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.Failf("snap: truncated: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// u8, u16, u32, f64, uv and sv are the wire primitives: loading, each
// returns the stored value (zero after an error); saving, each counts
// or appends v and returns it. u8, u16 and u32 are fixed-width
// little-endian, f64 the eight bytes of a float's IEEE-754 bits; uv is
// an unsigned varint (encoding/binary's: seven bits a byte, low group
// first, at most ten bytes), sv a signed one, zigzagged onto uv.
func (c *Codec) u8(v uint8) uint8 {
	if c.loading {
		return uint8(c.load(U8, 1))
	}
	if c.sizing {
		c.n++
	} else {
		c.buf = append(c.buf, v)
	}
	return v
}

func (c *Codec) u16(v uint16) uint16 {
	if c.loading {
		return uint16(c.load(U16, 2))
	}
	if c.sizing {
		c.n += 2
	} else {
		c.buf = le.AppendUint16(c.buf, v)
	}
	return v
}

func (c *Codec) u32(v uint32) uint32 {
	if c.loading {
		return uint32(c.load(U32, 4))
	}
	if c.sizing {
		c.n += 4
	} else {
		c.buf = le.AppendUint32(c.buf, v)
	}
	return v
}

func (c *Codec) f64(v uint64) uint64 {
	if c.loading {
		return c.load(F64, 8)
	}
	if c.sizing {
		c.n += 8
	} else {
		c.buf = le.AppendUint64(c.buf, v)
	}
	return v
}

func (c *Codec) uv(v uint64) uint64 {
	switch {
	case c.loading:
		return c.loadVarint(Uvarint)
	case c.sizing:
		c.n += uvarintLen(v)
	default:
		c.buf = binary.AppendUvarint(c.buf, v)
	}
	return v
}

func (c *Codec) sv(v int64) int64 {
	switch {
	case c.loading:
		return unzigzag(c.loadVarint(Varint))
	case c.sizing:
		c.n += uvarintLen(zigzag(v))
	default:
		c.buf = binary.AppendUvarint(c.buf, zigzag(v))
	}
	return v
}

// zigzag maps signed onto unsigned integers by magnitude — 0, -1, 1,
// -2, ... to 0, 1, 2, 3, ... — so small negatives stay short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// raw saves b verbatim, with no length prefix.
func raw[B string | []byte](c *Codec, b B) {
	if c.sizing {
		c.n += len(b)
	} else {
		c.buf = append(c.buf, b...)
	}
}

// load reads the next 1, 2, 4 or 8 body bytes as a little-endian
// integer.
func (c *Codec) load(kind Kind, n int) uint64 {
	off := c.off
	var v uint64
	switch b := c.take(n); len(b) {
	case 8:
		v = le.Uint64(b)
	case 4:
		v = uint64(le.Uint32(b))
	case 2:
		v = uint64(le.Uint16(b))
	case 1:
		v = uint64(b[0])
	default:
		return 0
	}
	c.note(kind, off, v, nil)
	return v
}

// loadVarint reads the next uvarint. One that runs past the body, runs
// longer than ten bytes or overflows 64 bits is an error. kind is what
// Record reports: a Varint is the zigzagged form of a signed value.
func (c *Codec) loadVarint(kind Kind) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	switch {
	case n == 0:
		c.Failf("snap: truncated: varint at offset %d runs past the body's %d bytes", c.off, len(c.buf))
		return 0
	case n < -binary.MaxVarintLen64:
		c.Failf("snap: varint at offset %d is longer than %d bytes", c.off, binary.MaxVarintLen64)
		return 0
	case n < 0:
		c.Failf("snap: varint at offset %d overflows 64 bits", c.off)
		return 0
	}
	if c.off += n; kind == Varint {
		c.note(kind, c.off-n, uint64(unzigzag(v)), nil)
	} else {
		c.note(kind, c.off-n, v, nil)
	}
	return v
}

// Kind is the wire form of a Field.
type Kind uint8

// The wire forms: fixed-width little-endian integers, an unsigned and a
// zigzagged signed varint, a float's IEEE-754 bits, and byte strings —
// a Bytes payload or a section marker's name — after their length.
const (
	U8 Kind = iota
	U16
	U32
	Uvarint
	Varint
	F64
	Raw
	Section
)

// Field is one field a loading walk read: its wire form, the blob
// bytes [Off, End) it occupies, the value the walk got — a signed
// varint's as its int64 bits, a float's as its IEEE-754 bits — and, for
// a section marker, its name. A walk's fields in order are the blob's
// map: tests find what to corrupt by position among them and by value,
// and Splice rewrites it, so no test computes an offset from the
// format's widths.
type Field struct {
	Kind     Kind
	Off, End int
	Val      uint64
	Name     string
}

// Record makes a loading codec append every field it reads from here
// on to *fs.
func (c *Codec) Record(fs *[]Field) { c.fields = fs }

// note records a field read at [off, c.off) when the codec records.
func (c *Codec) note(kind Kind, off int, v uint64, name []byte) {
	if c.fields != nil {
		*c.fields = append(*c.fields, Field{Kind: kind, Off: off, End: c.off, Val: v, Name: string(name)})
	}
}

// Splice returns a copy of blob with the numeric field f re-encoded to
// hold v (int64 bits for a Varint, IEEE-754 bits for an F64) — the
// bytes after it shift when a varint's length changes. The checksum
// trailer is not recomputed.
func (f Field) Splice(blob []byte, v uint64) []byte {
	out := append([]byte(nil), blob[:f.Off]...)
	switch f.Kind {
	case U8:
		out = append(out, byte(v))
	case U16:
		out = le.AppendUint16(out, uint16(v))
	case U32:
		out = le.AppendUint32(out, uint32(v))
	case Uvarint:
		out = binary.AppendUvarint(out, v)
	case Varint:
		out = binary.AppendUvarint(out, zigzag(int64(v)))
	case F64:
		out = le.AppendUint64(out, v)
	}
	return append(out, blob[f.End:]...)
}

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if x := c.u8(*v); c.loading {
		*v = x
	}
}

// Bool walks a bool as one byte; any stored value but 0 and 1 is an
// error.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if b = c.u8(b); c.loading {
		if b > 1 {
			c.Failf("snap: invalid bool byte at offset %d", c.off-1)
		}
		*v = b == 1
	}
}

// U64 walks a uint64 as a uvarint.
func (c *Codec) U64(v *uint64) {
	if x := c.uv(*v); c.loading {
		*v = x
	}
}

// I64 walks an int64 as a zigzagged varint.
func (c *Codec) I64(v *int64) {
	if x := c.sv(*v); c.loading {
		*v = x
	}
}

// Int walks an int as an int64.
func (c *Codec) Int(v *int) {
	if x := c.sv(int64(*v)); c.loading {
		*v = int(x)
	}
}

// I16 walks a little-endian int16 (slot and VC ids, per-VC flit
// counts: everything config.MaxBufferSlots bounds).
func (c *Codec) I16(v *int16) {
	if x := c.u16(uint16(*v)); c.loading {
		*v = int16(x)
	}
}

// F64 walks a float64 by its IEEE-754 bits, so sums and averages
// round-trip bit-exactly.
func (c *Codec) F64(v *float64) {
	if x := c.f64(math.Float64bits(*v)); c.loading {
		*v = math.Float64frombits(x)
	}
}

// Bytes walks a length-prefixed byte slice (freshly allocated when
// loading).
func (c *Codec) Bytes(v *[]byte) {
	n := c.uv(uint64(len(*v)))
	if !c.loading {
		raw(c, *v)
	} else if b := c.takeRaw(n, Raw); b != nil {
		*v = slices.Clone(b)
	}
}

// takeRaw returns the next n body bytes, a byte string of the given
// kind, or nil after an error.
func (c *Codec) takeRaw(n uint64, kind Kind) []byte {
	b := c.take(int(min(n, math.MaxInt)))
	if b != nil {
		c.note(kind, c.off-len(b), 0, b)
	}
	return b
}

// Section walks a named marker — a length-prefixed string. Loading, a
// different name is an immediate, located error instead of a silent
// misparse of what follows.
func (c *Codec) Section(name string) {
	n := c.u32(uint32(len(name)))
	if !c.loading {
		raw(c, name)
	} else if b := c.takeRaw(uint64(n), Section); b != nil && string(b) != name {
		c.Failf("snap: expected section %q, found %q", name, b)
	}
}

// Expect walks a count the constructed structure already fixed —
// queues, streams, shards — as a uvarint: loading, the stored count
// must equal n.
func (c *Codec) Expect(n int, what string) {
	if got := c.uv(uint64(n)); c.loading && got != uint64(n) {
		c.Failf("%s: snapshot has %d, constructed %d", what, got, n)
	}
}

// Present walks the presence marker of optional state whose existence
// is wiring (a fault plan, a tracer): loading, the marker must agree
// with wired. It reports whether the state's fields follow.
func (c *Codec) Present(wired bool, what string) bool {
	has := wired
	if c.Bool(&has); has != wired {
		c.Failf("%s: snapshot has it %v, configuration %v", what, has, wired)
	}
	return wired
}

// Len walks the length of a variable-length sequence, as a uvarint,
// and returns the count to walk: n when saving; when loading the
// stored count, which must lie in [0, max] and within Room (every
// element occupies at least a byte), so no caller sizes a loop or an
// allocation by an unbounded snapshot field. After an error it is
// zero. what names the field in the error.
func (c *Codec) Len(n, max int, what string) int {
	if !c.loading {
		c.uv(uint64(n))
		return n
	}
	n = int(min(c.uv(0), math.MaxInt))
	c.Range(n, 0, min(max, c.Room()), what)
	if c.err != nil {
		return 0
	}
	return n
}

// Seq walks a variable-length slice: its length (see Len), then each
// element through elem. Loading, the slice is refilled from length
// zero in its own backing array, growing only as elements arrive.
func Seq[T any](c *Codec, s *[]T, max int, what string, elem func(*T)) {
	n := c.Len(len(*s), max, what)
	if c.loading {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.loading {
			var zero T
			*s = append(*s, zero)
		}
		elem(&(*s)[i])
	}
}

// fixedLen walks the length prefix of a slice whose length the
// constructed topology already fixed, and reports whether to walk the
// elements: loading, the stored length must equal n.
func (c *Codec) fixedLen(n int, kind string) bool {
	if got := c.uv(uint64(n)); c.loading && got != uint64(n) {
		c.Failf("snap: %s length %d does not match constructed length %d", kind, got, n)
	}
	return c.err == nil
}

// U64s walks a length-prefixed []uint64 in place: the restore
// contract is that construction already sized every array, so a
// stored length other than len(s) is an error.
func (c *Codec) U64s(s []uint64) {
	if c.fixedLen(len(s), "[]uint64") {
		for i := range s {
			if x := c.uv(s[i]); c.loading {
				s[i] = x
			}
		}
	}
}

// I64s walks a length-prefixed []int64 in place (exact length).
func (c *Codec) I64s(s []int64) {
	if c.fixedLen(len(s), "[]int64") {
		c.i64s(s)
	}
}

// i64s walks the elements of s.
func (c *Codec) i64s(s []int64) {
	for i := range s {
		if x := c.sv(s[i]); c.loading {
			s[i] = x
		}
	}
}

// I16s walks a length-prefixed []int16 in place (exact length).
func (c *Codec) I16s(s []int16) {
	if c.fixedLen(len(s), "[]int16") {
		for i := range s {
			if x := c.u16(uint16(s[i])); c.loading {
				s[i] = int16(x)
			}
		}
	}
}

// Ints walks a length-prefixed []int in place (exact length).
func (c *Codec) Ints(s []int) {
	if c.fixedLen(len(s), "[]int") {
		for i := range s {
			c.Int(&s[i])
		}
	}
}

// Bools walks a length-prefixed []bool in place (exact length).
func (c *Codec) Bools(s []bool) {
	if c.fixedLen(len(s), "[]bool") {
		for i := range s {
			c.Bool(&s[i])
		}
	}
}

// F64s walks a length-prefixed []float64 in place (exact length).
func (c *Codec) F64s(s []float64) {
	if c.fixedLen(len(s), "[]float64") {
		c.f64s(s)
	}
}

// f64s walks the elements of s.
func (c *Codec) f64s(s []float64) {
	for i := range s {
		c.F64(&s[i])
	}
}

// varLen walks the length prefix of a slice whose length varies, and
// returns the elements to walk (none after an error). Loading, that
// many elements of at least width bytes each must still be unread —
// the guard that keeps a corrupted prefix from driving a huge
// allocation: at most 8/width bytes of slice per byte of blob — and
// the slice is resized to it, reusing its backing array when that is
// large enough.
func varLen[T any](c *Codec, s *[]T, width int) []T {
	n := c.uv(uint64(len(*s)))
	if c.loading && n > uint64(c.Room()/width) {
		c.Failf("snap: sequence of %d %d-byte elements exceeds the %d remaining bytes", n, width, c.Room())
	}
	if c.err != nil {
		return nil
	}
	if c.loading {
		*s = slices.Grow((*s)[:0], int(n))[:n]
	}
	return *s
}

// I64sVar walks a length-prefixed []int64 whose length varies; each
// element is a varint of at least a byte.
func (c *Codec) I64sVar(s *[]int64) { c.i64s(varLen(c, s, 1)) }

// F64sVar walks a length-prefixed []float64 whose length varies; each
// element is eight bytes.
func (c *Codec) F64sVar(s *[]float64) { c.f64s(varLen(c, s, 8)) }

// PacketTable walks the packet table through record, the walk of one
// packet's fields (ID first). Saving, the table is the packets the
// whole walk references, once each, sorted by ID: the sizing pass
// gathers them (Packet, Flit) and Save has them sorted by the time the
// writing pass gets here. Loading, every packet becomes a pooled record
// — whoever held the original's pointer holds none into the restored
// network — and record must bound its Size, which sizes the flits the
// first reference into the packet rebuilds.
func (c *Codec) PacketTable(record func(*flit.Packet)) {
	if !c.loading {
		// Sizing, refs is still filling: Save counts the table once
		// the walk is over.
		if c.record = record; !c.sizing {
			c.table()
		}
		return
	}
	n := c.Len(0, math.MaxInt, "snap: packet-table length")
	c.pkts = make(map[uint64]*flit.Packet)
	c.inNet = make(map[*flit.Packet]*inFlight)
	for i := 0; i < n && c.err == nil; i++ {
		p := &flit.Packet{Pooled: true}
		if record(p); c.pkts[p.ID] != nil {
			c.Failf("snap: duplicate packet %d in snapshot table", p.ID)
		}
		c.pkts[p.ID] = p
	}
}

// table saves the packet table: the count, then each referenced
// packet's record.
func (c *Codec) table() {
	c.uv(uint64(len(c.refs)))
	for _, p := range c.refs {
		c.record(p)
	}
}

// Packet walks a packet reference — identity only, or an absence
// marker for nil. Packet contents travel once, in the packet table.
func (c *Codec) Packet(p **flit.Packet) {
	has := *p != nil
	c.Bool(&has)
	if !has {
		if c.loading {
			*p = nil
		}
		return
	}
	if !c.loading {
		if c.sizing {
			c.refs = append(c.refs, *p)
		}
		c.uv((*p).ID)
		return
	}
	id := c.uv(0)
	if *p = c.pkts[id]; *p == nil {
		c.Failf("snap: reference to unknown packet %d", id)
	}
}

// flits returns the account of a loaded p, building p's flit sequence
// on first use (packets still waiting in a source queue never get one
// — their NI builds the flits at injection time, exactly like the
// straight-through run). Only a reference rebuilds flits, so a load
// rebuilds at most one packet, of at most the Size its record allowed,
// per reference the blob holds.
func (c *Codec) flits(p *flit.Packet) *inFlight {
	a := c.inNet[p]
	if a == nil {
		p.Materialize()
		a = &inFlight{claimed: make([]bool, p.Size), next: p.Size}
		c.inNet[p] = a
	}
	return a
}

// Injecting walks the cursor of a packet its source is part-way
// through injecting: next is the first flit still to go. Loading
// rebuilds the packet's flits; the references that claim them must
// then stop short of next.
func (c *Codec) Injecting(p *flit.Packet, next *int) {
	c.Int(next)
	c.Range(*next, 0, p.Size-1, "snap: injection cursor within its packet")
	if c.loading && c.err == nil {
		c.flits(p).next = *next
	}
}

// Flit walks a flit reference — identity as (packet ID, sequence
// index) plus the flit's two mutable fields — or an absence marker for
// nil. Flit objects are rebuilt on restore inside their packet record,
// so identity, not contents, is what travels; loading resolves the
// reference to the canonical rebuilt flit, applies the mutable fields
// in place, and refuses a flit some earlier reference already claimed.
// (Finish then checks each packet's claimed flits are the contiguous
// run its ejection and injection cursors bracket.)
func (c *Codec) Flit(f **flit.Flit) {
	var p *flit.Packet
	if *f != nil {
		p = (*f).Pkt
	}
	c.Packet(&p)
	if p == nil {
		if c.loading {
			*f = nil
		}
		return
	}
	if !c.loading {
		c.sv(int64((*f).Seq))
		c.sv(int64((*f).VC))
		c.sv((*f).ArrivedAt)
		return
	}
	seq, vc, at := int(c.sv(0)), int(c.sv(0)), c.sv(0)
	c.Range(seq, 0, p.Size-1, "snap: flit index within its packet")
	if c.err != nil {
		*f = nil
		return
	}
	a := c.flits(p)
	if a.claimed[seq] {
		c.Failf("snap: flit %d of packet %d is referenced twice", seq, p.ID)
	}
	a.claimed[seq] = true
	a.n++
	g := p.Flit(seq)
	g.VC, g.ArrivedAt = vc, at
	*f = g
}
