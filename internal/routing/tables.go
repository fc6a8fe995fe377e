// Route-compute memoization (DESIGN.md §10): a routing function is a
// pure function of (cur, dst), so the whole mesh's routing decisions
// can be precomputed at construction time into flat byte tables. The
// router's RC stage then becomes an array load (deterministic
// functions) or an unpack of one packed candidate word (adaptive
// functions) instead of coordinate arithmetic behind an interface
// dispatch per head flit.
package routing

import (
	"fmt"

	"vichar/internal/soa"
	"vichar/internal/topology"
)

// Tables memoizes one routing function plus the escape network over
// every (cur, dst) node pair of a mesh. One Tables is built per
// network (arena-backed, shared by all routers); lookups are
// allocation-free beyond the caller's reusable scratch.
type Tables struct {
	n int
	// ports[cur*n+dst] is the single output port of a deterministic
	// function; nil for adaptive functions.
	ports []uint8
	// cands[cur*n+dst] is the packed candidate word of an adaptive
	// function: bits 0-2 hold the first port, bits 3-5 the second,
	// bits 6-7 the candidate count. The word stores explicit ports in
	// emission order (X direction first) rather than a plain port
	// bitmask: ascending-bit iteration over a bitmask would visit
	// North (port 0) before East (port 1) and silently reorder the
	// allocator's tie-breaks. nil for deterministic functions.
	cands []uint8
	// escape[cur*n+dst] is the never-wrapping escape-network port
	// (EscapePort); nil when it would duplicate ports exactly (XY on
	// a mesh), in which case lookups fall through to ports.
	escape []uint8
}

// NewTables builds the memoization tables with plain allocations.
func NewTables(f Function, m topology.Mesh) *Tables { return NewTablesIn(nil, f, m) }

// NewTablesIn is NewTables drawing the tables from the arena's byte
// pool (nil-arena safe), so they sit beside the rest of the network's
// hot state. The arena must be sized with TableBytes.
func NewTablesIn(a *soa.Arena, f Function, m topology.Mesh) *Tables {
	n := m.Nodes()
	t := &Tables{n: n}
	det := f.Deterministic()
	if det {
		t.ports = a.TakeBytes(n * n)
	} else {
		t.cands = a.TakeBytes(n * n)
	}
	if !sharesEscapeTable(f, m) {
		t.escape = a.TakeBytes(n * n)
	}
	scratch := make([]int, 0, 2)
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			i := cur*n + dst
			scratch = f.AppendCandidates(scratch[:0], m, cur, dst)
			if det {
				t.ports[i] = packPort(scratch[0])
			} else {
				t.cands[i] = packCandidates(scratch)
			}
			if t.escape != nil {
				t.escape[i] = packPort(EscapePort(m, cur, dst))
			}
		}
	}
	return t
}

// sharesEscapeTable reports whether the function's own table already
// is the escape network, making a separate escape table redundant: XY
// on a mesh is exactly EscapePort (dimension order, no wraparound).
func sharesEscapeTable(f Function, m topology.Mesh) bool {
	_, isXY := f.(XY)
	return isXY && !m.Torus
}

// packPort narrows a port index into a table byte (3-bit fields in
// the packed candidate word).
func packPort(p int) uint8 {
	if p < 0 || p > 7 {
		//vichar:invariant only reachable from table construction; a 5-port router's port ids always fit 3 bits
		panic(fmt.Sprintf("routing: port %d does not fit a packed table entry", p))
	}
	return uint8(p)
}

// packCandidates packs an ordered candidate set into one byte.
func packCandidates(cands []int) uint8 {
	if len(cands) < 1 || len(cands) > 2 {
		//vichar:invariant only reachable from table construction; minimal routing on a 2-D mesh emits 1 or 2 candidates
		panic(fmt.Sprintf("routing: cannot pack %d candidates into a table word", len(cands)))
	}
	w := uint8(len(cands))<<6 | packPort(cands[0])
	if len(cands) == 2 {
		w |= packPort(cands[1]) << 3
	}
	return w
}

// Candidates is an ordered set of one or two output ports in the
// tables' packed form (see Tables.cands): what a router's VC state
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

// Candidates returns the memoized candidates for (cur, dst): identical
// contents and order to the underlying function's AppendCandidates
// (pinned exhaustively by TestTablesEquivalence).
func (t *Tables) Candidates(cur, dst int) Candidates {
	if t.ports != nil {
		return 1<<6 | Candidates(t.ports[cur*t.n+dst])
	}
	return Candidates(t.cands[cur*t.n+dst])
}

// AppendCandidates appends the memoized candidates for (cur, dst) to
// out, unpacked.
func (t *Tables) AppendCandidates(out []int, cur, dst int) []int {
	c := t.Candidates(cur, dst)
	for i := 0; i < c.Len(); i++ {
		out = append(out, c.At(i))
	}
	return out
}

// CandidateMask returns the candidates for (cur, dst) as a bitmask
// over output ports, for order-insensitive membership tests.
func (t *Tables) CandidateMask(cur, dst int) uint8 {
	c := t.Candidates(cur, dst)
	m := uint8(1) << c.At(0)
	if c.Len() > 1 {
		m |= 1 << c.At(1)
	}
	return m
}

// EscapePort returns the memoized escape-network port for (cur, dst).
func (t *Tables) EscapePort(cur, dst int) int {
	if t.escape != nil {
		return int(t.escape[cur*t.n+dst])
	}
	return int(t.ports[cur*t.n+dst])
}

// Bytes returns the tables' total memory footprint in bytes.
func (t *Tables) Bytes() int { return len(t.ports) + len(t.cands) + len(t.escape) }

// TableBytes is the closed-form byte count NewTablesIn takes from the
// arena for the function on the mesh; router.NewArena sizes the byte
// pool with it (TestArenaSizingExact pins the formula).
func TableBytes(f Function, m topology.Mesh) int {
	n := m.Nodes()
	if sharesEscapeTable(f, m) {
		return n * n
	}
	return 2 * n * n
}
