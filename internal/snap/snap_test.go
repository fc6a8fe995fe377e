package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"vichar/internal/flit"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("hdr")
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-5)
	w.Int(-123456)
	w.F64(3.14159)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.U64s([]uint64{9, 8})
	w.I64s([]int64{-1, 2})
	w.Ints([]int{4, -4})
	w.I16(-300)
	w.I16s([]int16{32767, -1})
	w.Bools([]bool{true, false, true})
	w.F64s([]float64{0.5, -0.25})
	data := w.Finish()

	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("hdr"); err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -5 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	u := make([]uint64, 2)
	r.U64sInto(u)
	if u[0] != 9 || u[1] != 8 {
		t.Fatalf("U64sInto = %v", u)
	}
	i64 := make([]int64, 2)
	r.I64sInto(i64)
	if i64[0] != -1 || i64[1] != 2 {
		t.Fatalf("I64sInto = %v", i64)
	}
	ints := make([]int, 2)
	r.IntsInto(ints)
	if ints[0] != 4 || ints[1] != -4 {
		t.Fatalf("IntsInto = %v", ints)
	}
	if got := r.I16(); got != -300 {
		t.Fatalf("I16 = %d", got)
	}
	i16 := make([]int16, 2)
	r.I16sInto(i16)
	if i16[0] != 32767 || i16[1] != -1 {
		t.Fatalf("I16sInto = %v", i16)
	}
	bools := make([]bool, 3)
	r.BoolsInto(bools)
	if !bools[0] || bools[1] || !bools[2] {
		t.Fatalf("BoolsInto = %v", bools)
	}
	f64s := make([]float64, 2)
	r.F64sInto(f64s)
	if f64s[0] != 0.5 || f64s[1] != -0.25 {
		t.Fatalf("F64sInto = %v", f64s)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEveryByteMutationRejectedOrDetected(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.U64(42)
	w.String("payload")
	data := w.Finish()
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x40
		if _, err := Open(mut); err == nil {
			t.Fatalf("mutation at byte %d of %d was not rejected", i, len(data))
		}
	}
}

// A version-3 snapshot (the format before the slot-linked control
// table and the packet-record cursor) carries a valid envelope —
// magic, checksum — but a layout this reader would misparse; Open
// must refuse it by version, naming both.
func TestVersion3Rejected(t *testing.T) {
	data := NewWriter().Finish()
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(body[len(magic):], 3)
	_, err := Open(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
	if err == nil {
		t.Fatal("a version-3 snapshot was opened")
	}
	if want := "format version 3 not supported (want 4)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to say %q", err, want)
	}
}

func TestTruncationRejected(t *testing.T) {
	data := NewWriter().Finish()
	for i := 0; i < len(data); i++ {
		if _, err := Open(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

func TestSectionMismatch(t *testing.T) {
	w := NewWriter()
	w.Section("alpha")
	r, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("beta"); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("section mismatch error = %v", err)
	}
}

func TestLengthMismatchInto(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{1, 2, 3})
	r, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r.U64sInto(make([]uint64, 2))
	if r.Err() == nil {
		t.Fatal("length mismatch not reported")
	}
}

func TestStickyErrorStopsReads(t *testing.T) {
	w := NewWriter()
	w.U64(1)
	r, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r.U64()
	r.U64() // past the end
	first := r.Err()
	if first == nil {
		t.Fatal("overread not reported")
	}
	r.U64()
	if r.Err() != first {
		t.Fatal("error was not sticky")
	}
}

func TestFlitRefRoundTrip(t *testing.T) {
	p := &flit.Packet{ID: 77, Src: 1, Dst: 2, Size: 3}
	flits := flit.MakeFlits(p)
	f := flits[1]
	f.VC = 9
	f.ArrivedAt = 1234

	w := NewWriter()
	w.Flit(f)
	w.Flit(nil)
	data := w.Finish()

	// Restore side: fresh flit objects rebuilt from the packet.
	p2 := &flit.Packet{ID: 77, Src: 1, Dst: 2, Size: 3}
	rebuilt := flit.MakeFlits(p2)
	resolve := func(pkt uint64, seq int) (*flit.Flit, error) {
		if pkt != p2.ID || seq < 0 || seq >= len(rebuilt) {
			return nil, fmt.Errorf("unknown flit %d/%d", pkt, seq)
		}
		return rebuilt[seq], nil
	}

	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Flit(resolve)
	if err != nil {
		t.Fatal(err)
	}
	if got != rebuilt[1] || got.VC != 9 || got.ArrivedAt != 1234 {
		t.Fatalf("flit ref resolved to %+v", got)
	}
	if nilF, err := r.Flit(resolve); err != nil || nilF != nil {
		t.Fatalf("nil flit ref = %v, %v", nilF, err)
	}
	unknown := func(pkt uint64, seq int) (*flit.Flit, error) {
		return nil, fmt.Errorf("nope")
	}
	w2 := NewWriter()
	w2.Flit(f)
	r2, err := Open(w2.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Flit(unknown); err == nil {
		t.Fatal("resolver failure not propagated")
	}
}
