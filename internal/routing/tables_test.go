package routing

import (
	"testing"

	"vichar/internal/soa"
	"vichar/internal/topology"
)

// TestTablesEquivalence pins the memoization contract exhaustively:
// for every (cur, dst) pair of every (function, topology) combination,
// the table lookups must reproduce the live routing function — same
// candidate contents in the same order and the same escape-network
// port. The router's RC stage and the VA nomination path read only the
// tables, so any divergence here would silently change allocation
// tie-breaks.
func TestTablesEquivalence(t *testing.T) {
	meshes := []struct {
		name string
		m    topology.Mesh
	}{
		{"mesh-4x4", topology.New(4, 4)},
		{"mesh-5x3", topology.New(5, 3)},
		{"torus-4x4", topology.NewTorus(4, 4)},
		{"torus-3x5", topology.NewTorus(3, 5)},
	}
	funcs := []struct {
		name string
		f    Function
	}{
		{"XY", XY{}},
		{"MinimalAdaptive", MinimalAdaptive{}},
	}
	for _, mc := range meshes {
		for _, fc := range funcs {
			t.Run(mc.name+"/"+fc.name, func(t *testing.T) {
				m := mc.m
				tab := NewTables(fc.f, m)
				if got, want := tab.Bytes(), TableBytes(fc.f, m); got != want {
					t.Fatalf("Bytes() = %d, TableBytes = %d", got, want)
				}
				n := m.Nodes()
				var want, got []int
				for cur := 0; cur < n; cur++ {
					for dst := 0; dst < n; dst++ {
						want = fc.f.AppendCandidates(want[:0], m, cur, dst)
						got = tab.AppendCandidates(got[:0], cur, dst)
						if len(want) != len(got) {
							t.Fatalf("(%d,%d): table has %d candidates, function has %d",
								cur, dst, len(got), len(want))
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("(%d,%d): candidate %d is port %d, function says %d",
									cur, dst, i, got[i], want[i])
							}
						}
						if ge, we := tab.EscapePort(cur, dst), EscapePort(m, cur, dst); ge != we {
							t.Fatalf("(%d,%d): escape port %d, want %d", cur, dst, ge, we)
						}
					}
				}
			})
		}
	}
}

// TestTablesArenaBacked pins the arena path: tables built through a
// byte pool sized by TableBytes must not overflow and must agree with
// the plain-allocation build.
func TestTablesArenaBacked(t *testing.T) {
	m := topology.NewTorus(4, 4)
	f := MinimalAdaptive{}
	a := soa.NewArena(0, 0, 0, 0, 0, TableBytes(f, m))
	at := NewTablesIn(a, f, m)
	if n := a.Overflow(); n != 0 {
		t.Fatalf("arena overflowed by %d bytes with a TableBytes-sized pool", n)
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
