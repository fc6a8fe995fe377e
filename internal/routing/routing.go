// Package routing provides the routing functions used in the paper's
// evaluation: deterministic dimension-ordered XY routing (inherently
// deadlock-free on a mesh, used by all but one experiment) and
// minimal adaptive routing (used by the Figure 12(i) experiment,
// which relies on escape virtual channels for deadlock recovery).
package routing

import (
	"fmt"

	"vichar/internal/topology"
)

// Function computes the productive output ports for a packet at a
// router. The router's VC allocator picks among the candidates.
type Function interface {
	// Candidates returns the set of output ports that move a packet
	// at cur minimally toward dst. When cur == dst it returns only
	// the Local ejection port. The result is never empty and its
	// order is deterministic (X-direction first), so deterministic
	// functions return exactly one port.
	Candidates(m topology.Mesh, cur, dst int) []int
	// AppendCandidates appends the same candidate set to out and
	// returns the extended slice, letting tick-path callers reuse a
	// scratch buffer instead of allocating per routing computation.
	AppendCandidates(out []int, m topology.Mesh, cur, dst int) []int
	// Deterministic reports whether Candidates always returns a
	// single port (and therefore whether the function is
	// deadlock-free on its own).
	Deterministic() bool
	// String names the algorithm.
	String() string
}

// XY is dimension-ordered routing: correct the X offset fully, then
// the Y offset, taking the shorter way around on a torus. On a mesh
// dependent turns are forbidden so it is deadlock-free without escape
// resources; on a torus the wraparound rings close cycles, so it must
// be paired with escape VCs (whose escape network never wraps).
type XY struct{}

// Candidates returns the single dimension-ordered port.
func (x XY) Candidates(m topology.Mesh, cur, dst int) []int {
	return x.AppendCandidates(nil, m, cur, dst)
}

// AppendCandidates appends the single dimension-ordered port to out.
func (XY) AppendCandidates(out []int, m topology.Mesh, cur, dst int) []int {
	return append(out, xyPort(m, cur, dst))
}

// Deterministic is always true for XY.
func (XY) Deterministic() bool { return true }

func (XY) String() string { return "XY" }

// xDir returns the X-dimension port toward dx, shortest way around on
// a torus (ties break East).
func xDir(m topology.Mesh, cx, dx int) int {
	if !m.Torus {
		if dx > cx {
			return topology.East
		}
		return topology.West
	}
	fwd := ((dx - cx) + m.Width) % m.Width
	if fwd <= m.Width-fwd {
		return topology.East
	}
	return topology.West
}

// yDir returns the Y-dimension port toward dy, shortest way around on
// a torus (ties break South).
func yDir(m topology.Mesh, cy, dy int) int {
	if !m.Torus {
		if dy > cy {
			return topology.South
		}
		return topology.North
	}
	fwd := ((dy - cy) + m.Height) % m.Height
	if fwd <= m.Height-fwd {
		return topology.South
	}
	return topology.North
}

// xyPort returns the one dimension-ordered output port.
func xyPort(m topology.Mesh, cur, dst int) int {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	switch {
	case cx != dx:
		return xDir(m, cx, dx)
	case cy != dy:
		return yDir(m, cy, dy)
	default:
		return topology.Local
	}
}

// EscapePort returns the deterministic output port of the escape
// channel network for deadlock recovery; packets re-channelled onto
// an escape VC follow it until ejection. The escape network is
// dimension-ordered and NEVER uses wraparound links, so it is acyclic
// even on a torus (a packet may take the long way around, but it is
// guaranteed to drain).
func EscapePort(m topology.Mesh, cur, dst int) int {
	m.Torus = false
	return xyPort(m, cur, dst)
}

// MinimalAdaptive returns every productive (minimal) direction; the
// allocator chooses among them by downstream credit availability.
// Cyclic dependencies are possible, so it must be paired with escape
// VCs (Duato's protocol) for deadlock recovery.
type MinimalAdaptive struct{}

// Candidates returns every port on a minimal path, X direction first.
func (a MinimalAdaptive) Candidates(m topology.Mesh, cur, dst int) []int {
	return a.AppendCandidates(nil, m, cur, dst)
}

// AppendCandidates appends every port on a minimal path to out, X
// direction first.
func (MinimalAdaptive) AppendCandidates(out []int, m topology.Mesh, cur, dst int) []int {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if cx == dx && cy == dy {
		return append(out, topology.Local)
	}
	if cx != dx {
		out = append(out, xDir(m, cx, dx))
	}
	if cy != dy {
		out = append(out, yDir(m, cy, dy))
	}
	return out
}

// Deterministic is always false for minimal adaptive routing.
func (MinimalAdaptive) Deterministic() bool { return false }

func (MinimalAdaptive) String() string { return "MinAdaptive" }

// Validate checks that every candidate port actually exists at cur
// (moves to a real neighbor or ejects); used by tests.
func Validate(f Function, m topology.Mesh, cur, dst int) error {
	for _, p := range f.Candidates(m, cur, dst) {
		if p == topology.Local {
			if cur != dst {
				return fmt.Errorf("routing: %s ejects at %d before reaching %d", f, cur, dst)
			}
			continue
		}
		if _, ok := m.Neighbor(cur, p); !ok {
			return fmt.Errorf("routing: %s routes off the mesh edge at node %d port %s", f, cur, topology.PortName(p))
		}
	}
	return nil
}
