package flit

import (
	"testing"
	"testing/quick"
)

func TestTypeClassification(t *testing.T) {
	cases := []struct {
		typ    Type
		isHead bool
		isTail bool
		str    string
	}{
		{Head, true, false, "H"},
		{Body, false, false, "D"},
		{Tail, false, true, "T"},
		{HeadTail, true, true, "HT"},
	}
	for _, c := range cases {
		if got := c.typ.IsHead(); got != c.isHead {
			t.Errorf("%v.IsHead() = %v, want %v", c.typ, got, c.isHead)
		}
		if got := c.typ.IsTail(); got != c.isTail {
			t.Errorf("%v.IsTail() = %v, want %v", c.typ, got, c.isTail)
		}
		if got := c.typ.String(); got != c.str {
			t.Errorf("%v.String() = %q, want %q", c.typ, got, c.str)
		}
	}
}

func TestTypeStringUnknown(t *testing.T) {
	if got := Type(42).String(); got != "Type(42)" {
		t.Errorf("unknown type prints %q", got)
	}
}

func TestMakeFlitsFourFlitPacket(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dst: 5, Size: 4}
	fs := MakeFlits(p)
	if len(fs) != 4 {
		t.Fatalf("got %d flits, want 4", len(fs))
	}
	wantTypes := []Type{Head, Body, Body, Tail}
	for i, f := range fs {
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type %v, want %v", i, f.Type, wantTypes[i])
		}
		if f.Seq != i {
			t.Errorf("flit %d seq %d", i, f.Seq)
		}
		if f.Pkt != p {
			t.Errorf("flit %d does not share the packet", i)
		}
	}
}

func TestMakeFlitsSingleFlit(t *testing.T) {
	fs := MakeFlits(&Packet{Size: 1})
	if len(fs) != 1 {
		t.Fatalf("got %d flits, want 1", len(fs))
	}
	if fs[0].Type != HeadTail {
		t.Errorf("single flit type %v, want HeadTail", fs[0].Type)
	}
	if !fs[0].IsHead() || !fs[0].IsTail() {
		t.Error("single flit must be both head and tail")
	}
}

func TestMakeFlitsTwoFlit(t *testing.T) {
	fs := MakeFlits(&Packet{Size: 2})
	if len(fs) != 2 || fs[0].Type != Head || fs[1].Type != Tail {
		t.Fatalf("two-flit packet decomposed as %v", fs)
	}
}

func TestMakeFlitsDegenerate(t *testing.T) {
	if fs := MakeFlits(&Packet{Size: 0}); fs != nil {
		t.Errorf("zero-size packet yielded %d flits", len(fs))
	}
	if fs := MakeFlits(&Packet{Size: -3}); fs != nil {
		t.Errorf("negative-size packet yielded %d flits", len(fs))
	}
}

// Property: any positive packet size yields exactly one head, exactly
// one tail, and size flits in sequence order.
func TestMakeFlitsProperty(t *testing.T) {
	prop := func(sz uint8) bool {
		size := int(sz%64) + 1
		fs := MakeFlits(&Packet{Size: size})
		if len(fs) != size {
			return false
		}
		heads, tails := 0, 0
		for i, f := range fs {
			if f.Seq != i {
				return false
			}
			if f.IsHead() {
				heads++
			}
			if f.IsTail() {
				tails++
			}
		}
		return heads == 1 && tails == 1 && fs[0].IsHead() && fs[size-1].IsTail()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketLatency(t *testing.T) {
	p := &Packet{CreatedAt: 100, EjectedAt: 187}
	if got := p.Latency(); got != 87 {
		t.Errorf("latency %d, want 87", got)
	}
}

func TestStrings(t *testing.T) {
	p := &Packet{ID: 7, Src: 1, Dst: 2, Size: 4}
	if got := p.String(); got != "pkt#7 1->2 (4 flits)" {
		t.Errorf("packet string %q", got)
	}
	f := &Flit{Pkt: p, Type: Body, Seq: 2, VC: 3}
	if got := f.String(); got != "D[2] of pkt#7 1->2 (4 flits) vc=3" {
		t.Errorf("flit string %q", got)
	}
}

// Materialize builds, in the packet's own storage, exactly the flits
// MakeFlits would allocate — and a record reused for a packet of
// another size rebuilds them without carrying anything over.
func TestMaterializeMatchesMakeFlits(t *testing.T) {
	p := &Packet{}
	for _, size := range []int{4, 1, 9, 2, 9} {
		p.Reset()
		p.ID, p.Size = uint64(size), size
		if p.Materialized() {
			t.Fatalf("size %d: a reset packet reports its flits built", size)
		}
		p.Materialize()
		// Dirty the mutable fields the way a trip through the network does.
		p.Flit(size-1).VC, p.Flit(0).ArrivedAt = 7, 99
		p.Materialize()
		want := MakeFlits(p)
		for i, w := range want {
			if got := p.Flit(i); *got != *w {
				t.Fatalf("size %d flit %d: materialized %+v, MakeFlits %+v", size, i, *got, *w)
			}
		}
		if !p.Materialized() {
			t.Fatalf("size %d: materialized packet reports no flits", size)
		}
	}
}

// Reset keeps nothing of the previous packet but its flit storage.
func TestResetKeepsOnlyStorage(t *testing.T) {
	p := &Packet{ID: 3, Src: 1, Dst: 2, Size: 6, EjectedAt: 40, NextSeq: 6, Escaped: true, Pooled: true, Class: 1, Req: 9}
	p.Materialize()
	first := p.Flit(0)
	p.Reset()
	if p.ID != 0 || p.Size != 0 || p.NextSeq != 0 || p.EjectedAt != 0 || p.Escaped || p.Pooled || p.Class != 0 || p.Req != 0 {
		t.Fatalf("reset left fields behind: %+v", p)
	}
	p.Size = 4
	if n := testing.AllocsPerRun(10, p.Materialize); n != 0 {
		t.Fatalf("re-materializing a smaller packet in a recycled record allocates %.0f times", n)
	}
	if p.Flit(0) != first {
		t.Fatal("a recycled record did not reuse its flit storage")
	}
}
