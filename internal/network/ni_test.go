package network

import (
	"fmt"
	"strings"
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
)

// injectionVCs drives node 0's network interface, as New wires it,
// over a downstream that drains each flit lag cycles after it arrives,
// queueing packets by the class pattern (one character per cycle: '0'
// or '1' queues a packet of that class, folded onto class 0 with one
// class; '.' none), and returns the class:VC each packet was granted,
// in grant order.
func injectionVCs(t *testing.T, arch config.BufferArch, vcs, classes int, lag int64, pattern string) string {
	t.Helper()
	cfg := config.Default()
	cfg.Width, cfg.Height = 3, 3
	cfg.Arch = arch
	cfg.VCs, cfg.VCDepth, cfg.BufferSlots = vcs, 2, 2*vcs
	cfg.InjectionRate = 0
	if classes > 1 {
		cfg.Txn = config.TxnConfig{Enabled: true, Rate: 0.1, ReadFrac: 1}
	}
	if got := cfg.VCClasses(); got != classes {
		t.Fatalf("config has %d VC classes, want %d", got, classes)
	}
	s := New(&cfg).nis[0]
	s.txn = nil
	s.link = &flitLink{delay: 1, q: ring[timedFlit]{buf: make([]timedFlit, 16)}}
	var grants []string
	for now := int64(0); now < int64(len(pattern))+64; now++ {
		if now < int64(len(pattern)) && pattern[now] != '.' {
			c := int(pattern[now]-'0') % classes
			s.enqueue(&flit.Packet{ID: uint64(now), Size: 2, Class: uint8(c)})
		}
		var started [2]bool
		for c := range s.streams {
			started[c] = s.streams[c].cur == nil && s.streams[c].queued() > 0
		}
		s.tick(now)
		for c := range s.streams {
			if st := &s.streams[c]; started[c] && st.cur != nil {
				grants = append(grants, fmt.Sprintf("%d:%d", c, st.vc))
			}
		}
		// The downstream drains each flit lag cycles after it arrives.
		for ; s.link.q.len() > 0 && s.link.q.at(0).at+lag <= now; s.link.q.head++ {
			f := s.link.q.at(0).f
			s.view.OnCredit(flit.Credit{VC: f.VC, ReleaseVC: f.IsTail()})
		}
	}
	return strings.Join(grants, " ")
}

// The NI's VC round-robin pointer is one span-relative offset shared by
// every stream: a grant of VC vc in a span [lo, lo+n) leaves it at
// (vc-lo+1)%n, and the next grant of any class scans its own span from
// that offset. With uneven class chunks (3 regular VCs split 2/1, 5
// split 3/2) the sharing shows: a pointer kept per stream changes the
// DAMQ rows' grants.
func TestNIInjectionVCSequence(t *testing.T) {
	const pattern = "0001000010000001001101000000100"
	for _, tc := range []struct {
		arch    config.BufferArch
		vcs     int
		classes int
		want    string
	}{
		{config.Generic, 4, 1, "0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2"},
		{config.DAMQ, 4, 1, "0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2 0:3 0:0 0:1 0:2"},
		{config.Generic, 3, 2, "0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1"},
		{config.DAMQ, 3, 2, "0:0 0:1 1:2 0:0 0:1 1:2 0:0 0:1 1:2 0:0 1:2 0:0 1:2 0:0 0:1 1:2 1:2 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1 0:0 0:1"},
		{config.Generic, 5, 2, "0:0 0:1 1:3 0:2 0:0 1:4 0:1 0:2 1:3 0:0 1:4 0:1 1:3 0:2 1:4 0:0 1:3 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2"},
		{config.DAMQ, 5, 2, "0:0 0:1 1:3 0:1 0:2 1:3 0:1 0:2 1:3 0:1 1:3 0:1 1:3 0:1 1:3 0:1 1:3 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2 0:0 0:1 0:2"},
	} {
		name := fmt.Sprintf("%v/%dvcs/%dclasses", tc.arch, tc.vcs, tc.classes)
		if got := injectionVCs(t, tc.arch, tc.vcs, tc.classes, 3, pattern); got != tc.want {
			t.Errorf("%s: grants\n%s\nwant\n%s", name, got, tc.want)
		}
	}
}
