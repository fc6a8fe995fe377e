package routing

import (
	"testing"

	"vichar/internal/rng"
	"vichar/internal/soa"
	"vichar/internal/topology"
)

// checkPair compares the tables against the live routing function at
// (cur, dst): same candidate contents in the same order and the same
// escape-network port.
func checkPair(t *testing.T, f Function, m topology.Mesh, tab *Tables, cur, dst int, want, got []int) {
	t.Helper()
	want = f.AppendCandidates(want[:0], m, cur, dst)
	got = tab.AppendCandidates(got[:0], cur, dst)
	if len(want) != len(got) {
		t.Fatalf("(%d,%d): table has %d candidates, function has %d", cur, dst, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("(%d,%d): candidate %d is port %d, function says %d", cur, dst, i, got[i], want[i])
		}
	}
	if ge, we := tab.EscapePort(cur, dst), EscapePort(m, cur, dst); ge != we {
		t.Fatalf("(%d,%d): escape port %d, want %d", cur, dst, ge, we)
	}
}

// TestTablesEquivalence pins the closed-form contract: the table
// lookups must reproduce the live routing function — same candidate
// contents in the same order and the same escape-network port — for
// every (cur, dst) pair of the small meshes and tori, and on a seeded
// sample of pairs of the 181x181 mesh and torus (32 761 nodes, the
// largest square config.Validate admits). The router's RC stage and
// the VA nomination path read only the tables, so any divergence here
// would silently change allocation tie-breaks. The tables hold a
// per-node coordinate table and nothing more: their footprint is
// linear in the node count, so a 181x181 build is one 131 KB take.
func TestTablesEquivalence(t *testing.T) {
	meshes := []struct {
		name string
		m    topology.Mesh
	}{
		{"mesh-4x4", topology.New(4, 4)},
		{"mesh-5x3", topology.New(5, 3)},
		{"torus-4x4", topology.NewTorus(4, 4)},
		{"torus-3x5", topology.NewTorus(3, 5)},
		{"torus-6x6", topology.NewTorus(6, 6)},
		{"mesh-181x181", topology.New(181, 181)},
		{"torus-181x181", topology.NewTorus(181, 181)},
	}
	funcs := []struct {
		name string
		f    Function
	}{
		{"XY", XY{}},
		{"MinimalAdaptive", MinimalAdaptive{}},
	}
	const bytesPerNode = 4
	for _, mc := range meshes {
		for _, fc := range funcs {
			t.Run(mc.name+"/"+fc.name, func(t *testing.T) {
				m := mc.m
				n := m.Nodes()
				tab := NewTables(fc.f, m)
				if got := tab.Bytes(); got > bytesPerNode*n || got != TableBytes(m) {
					t.Fatalf("Bytes() = %d, want at most %d per node and TableBytes = %d", got, bytesPerNode, TableBytes(m))
				}
				var want, got []int
				if n <= 64 {
					for cur := 0; cur < n; cur++ {
						for dst := 0; dst < n; dst++ {
							checkPair(t, fc.f, m, tab, cur, dst, want, got)
						}
					}
					return
				}
				// Every node as a source against a seeded destination,
				// plus the pairs that sit on a torus ring's tie (the far
				// side of an odd ring has none; 181 is odd, so the
				// half-way split is checked on both neighbours of it).
				s := rng.New(int64(n))
				for cur := 0; cur < n; cur++ {
					checkPair(t, fc.f, m, tab, cur, s.Intn(n), want, got)
				}
				for _, d := range []int{m.Width / 2, m.Width/2 + 1} {
					for cur := 0; cur < n; cur += 97 {
						cx, cy := m.XY(cur)
						checkPair(t, fc.f, m, tab, cur, m.Node((cx+d)%m.Width, (cy+d)%m.Height), want, got)
					}
				}
			})
		}
	}
}

// TestTablesArenaBacked pins the arena path: tables built through an
// int16 pool sized by TableBytes must not overflow and must agree with
// the plain-allocation build.
func TestTablesArenaBacked(t *testing.T) {
	m := topology.NewTorus(4, 4)
	f := MinimalAdaptive{}
	a := soa.NewArena(0, TableBytes(m)/2, 0, 0, 0)
	at := NewTablesIn(a, f, m)
	if n := a.Overflow(); n != 0 {
		t.Fatalf("arena overflowed by %d elements with a TableBytes-sized pool", n)
	}
	pt := NewTables(f, m)
	n := m.Nodes()
	var x, y []int
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			x = at.AppendCandidates(x[:0], cur, dst)
			y = pt.AppendCandidates(y[:0], cur, dst)
			if len(x) != len(y) {
				t.Fatalf("(%d,%d): arena table has %d candidates, plain has %d", cur, dst, len(x), len(y))
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("(%d,%d): arena candidate %d = %d, plain = %d", cur, dst, i, x[i], y[i])
				}
			}
			if at.EscapePort(cur, dst) != pt.EscapePort(cur, dst) {
				t.Fatalf("(%d,%d): arena escape %d, plain %d",
					cur, dst, at.EscapePort(cur, dst), pt.EscapePort(cur, dst))
			}
		}
	}
}
