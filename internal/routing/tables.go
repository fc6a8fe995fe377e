// Closed-form route computation (DESIGN.md §10.6): both routing
// functions and the escape network are a few compares on the two
// nodes' coordinates, so the router's RC stage reads them from a
// per-node coordinate table and computes the answer in place — no
// interface dispatch, division or modulo per head flit, and nothing
// that grows faster than the node count.
package routing

import (
	"fmt"

	"vichar/internal/soa"
	"vichar/internal/topology"
)

// Tables is the route computation of one routing function on one
// mesh. One Tables is built per network (arena-backed, shared by all
// routers); lookups are allocation-free beyond the caller's reusable
// scratch.
type Tables struct {
	// xy[2*node] and xy[2*node+1] are the node's column and row
	// (config.Validate's MaxNodes keeps both inside int16).
	xy []int16
	// width and height are the ring lengths of the torus wraparound.
	width, height int
	torus         bool
	// adaptive selects MinimalAdaptive's candidate pair over XY's
	// single port.
	adaptive bool
}

// NewTables builds the route computation with plain allocations.
func NewTables(f Function, m topology.Mesh) *Tables { return NewTablesIn(nil, f, m) }

// NewTablesIn is NewTables drawing the coordinate table from the
// arena's int16 pool (nil-arena safe), so it sits beside the rest of
// the network's hot state. The arena must be sized with TableBytes.
func NewTablesIn(a *soa.Arena, f Function, m topology.Mesh) *Tables {
	t := &Tables{
		xy:    a.TakeInt16s(2 * m.Nodes()),
		width: m.Width, height: m.Height, torus: m.Torus,
	}
	switch f.(type) {
	case XY:
	case MinimalAdaptive:
		t.adaptive = true
	default:
		panic(fmt.Sprintf("routing: no closed form for routing function %s", f))
	}
	i := 0
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			t.xy[i], t.xy[i+1] = int16(x), int16(y)
			i += 2
		}
	}
	return t
}

// Candidates is an ordered set of one or two output ports packed into
// one byte: bits 0-2 hold the first port, bits 3-5 the second, bits 6-7
// the count. It stores explicit ports in emission order (X direction
// first) rather than a port bitmask: ascending-bit iteration over a
// bitmask would visit North (port 0) before East (port 1) and silently
// reorder the allocator's tie-breaks. It is what a router's VC state
// keeps of a routing decision, one byte instead of a slice.
type Candidates uint8

// OneCandidate packs the single port p (a 5-port router's port ids
// fit the 3-bit field).
func OneCandidate(p int) Candidates { return 1<<6 | Candidates(p&7) }

func (c Candidates) String() string {
	if c.Len() == 2 {
		return fmt.Sprintf("[%d %d]", c.At(0), c.At(1))
	}
	return fmt.Sprintf("[%d]", c.At(0))
}

// Len returns the number of candidates.
func (c Candidates) Len() int { return int(c >> 6) }

// At returns candidate i (0 is the routing function's first choice).
func (c Candidates) At(i int) int { return int(c >> (3 * uint(i)) & 7) }

// Candidates returns the routing function's candidates for (cur,
// dst): identical contents and order to its AppendCandidates (pinned
// by TestTablesEquivalence).
func (t *Tables) Candidates(cur, dst int) Candidates {
	c, d := t.xy[2*cur:2*cur+2:2*cur+2], t.xy[2*dst:2*dst+2:2*dst+2]
	cx, cy, dx, dy := int(c[0]), int(c[1]), int(d[0]), int(d[1])
	if cx == dx {
		if cy == dy {
			return OneCandidate(topology.Local)
		}
		return OneCandidate(t.ring(cy, dy, t.height, topology.South, topology.North))
	}
	x := t.ring(cx, dx, t.width, topology.East, topology.West)
	if !t.adaptive || cy == dy {
		return OneCandidate(x)
	}
	return 2<<6 | Candidates(t.ring(cy, dy, t.height, topology.South, topology.North))<<3 | Candidates(x)
}

// ring is xDir and yDir for c != d: the port from coordinate c toward
// d along a dimension of n nodes, up (toward higher coordinates: East,
// South) or down — the shorter way around a torus ring with ties up,
// the only way on a mesh.
func (t *Tables) ring(c, d, n, up, down int) int {
	fwd := d - c
	if t.torus {
		if fwd < 0 {
			fwd += n
		}
		if 2*fwd <= n {
			return up
		}
		return down
	}
	if fwd > 0 {
		return up
	}
	return down
}

// AppendCandidates appends the candidates for (cur, dst) to out,
// unpacked.
func (t *Tables) AppendCandidates(out []int, cur, dst int) []int {
	c := t.Candidates(cur, dst)
	for i := 0; i < c.Len(); i++ {
		out = append(out, c.At(i))
	}
	return out
}

// EscapePort returns the escape-network port for (cur, dst): XY that
// never takes a wraparound link (the package-level EscapePort).
func (t *Tables) EscapePort(cur, dst int) int {
	c, d := t.xy[2*cur:2*cur+2:2*cur+2], t.xy[2*dst:2*dst+2:2*dst+2]
	switch {
	case c[0] < d[0]:
		return topology.East
	case c[0] > d[0]:
		return topology.West
	case c[1] < d[1]:
		return topology.South
	case c[1] > d[1]:
		return topology.North
	default:
		return topology.Local
	}
}

// Bytes returns the coordinate table's memory footprint in bytes.
func (t *Tables) Bytes() int { return 2 * len(t.xy) }

// TableBytes is the byte count NewTablesIn takes from the arena's
// int16 pool for the mesh, four per node whatever the function;
// router.NewArena sizes the pool with it (TestArenaSizingExact pins
// the formula).
func TableBytes(m topology.Mesh) int { return 4 * m.Nodes() }
