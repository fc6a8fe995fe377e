// Package arbiter provides the arbitration primitives used by the
// virtual-channel and switch allocators: a round-robin arbiter with a
// rotating priority pointer and a matrix arbiter maintaining a
// least-recently-served partial order. Both are strongly fair: a
// persistent requester is served within N grants.
package arbiter

import (
	"fmt"
	"math/bits"

	"vichar/internal/snap"
)

// Arbiter selects one winner among a set of requesters each cycle.
type Arbiter interface {
	// Arbitrate picks a winner among the indices whose requests[i] is
	// true and updates internal priority state. It returns -1 when
	// nothing is requested.
	Arbitrate(requests []bool) int
	// Size returns the number of request inputs.
	Size() int
	// Reset restores the initial priority state.
	Reset()
}

// RoundRobin is a rotating-priority arbiter: after a grant the
// priority pointer moves to the requester after the winner, so each
// input is at most n-1 grants away from being highest priority.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns a round-robin arbiter over n inputs.
func NewRoundRobin(n int) *RoundRobin {
	if n < 1 {
		panic(fmt.Sprintf("arbiter: size must be positive, got %d", n))
	}
	return &RoundRobin{n: n}
}

// Size returns the number of request inputs.
func (a *RoundRobin) Size() int { return a.n }

// Reset restores the priority pointer to input 0.
func (a *RoundRobin) Reset() { a.next = 0 }

// State walks the priority pointer — the arbiter's only mutable
// state — for checkpointing.
func (a *RoundRobin) State(c *snap.Codec) {
	c.Int(&a.next)
	c.Range(a.next, 0, a.n-1, "arbiter: priority pointer")
}

// Arbitrate grants the first requester at or after the priority
// pointer, then advances the pointer past the winner.
func (a *RoundRobin) Arbitrate(requests []bool) int {
	if len(requests) != a.n {
		//vichar:invariant a request vector sized differently from the arbiter means the caller wired the wrong port set
		panic(fmt.Sprintf("arbiter: got %d requests for a %d-input arbiter", len(requests), a.n))
	}
	for i := 0; i < a.n; i++ {
		idx := (a.next + i) % a.n
		if requests[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}

// ArbitrateMask is Arbitrate over a request bitmask: words holds one
// bit per input (bit i of words[i/64] set when input i requests), and
// bits at or above Size must be zero. It grants the same winner and
// evolves the same priority state as Arbitrate on the equivalent bool
// slice, but finds the winner with word scans and trailing-zero counts
// instead of a per-input loop — the shape the router's hot VC masks
// are already in.
func (a *RoundRobin) ArbitrateMask(words []uint64) int {
	if len(words)*64 < a.n {
		//vichar:invariant a mask narrower than the arbiter means the caller wired the wrong port set
		panic(fmt.Sprintf("arbiter: got %d mask bits for a %d-input arbiter", len(words)*64, a.n))
	}
	// Single-word fast path (every ≤64-input arbiter: the switch and VC
	// allocators' port-stage arbiters always, the VC stages up to 64
	// VCs): the wrap search collapses to two trailing-zero counts — the
	// first set bit at or after the pointer, else the lowest set bit.
	if len(words) == 1 {
		m := words[0]
		if m == 0 {
			return -1
		}
		if hi := m &^ (1<<(uint(a.next)&63) - 1); hi != 0 {
			return a.grant(bits.TrailingZeros64(hi))
		}
		return a.grant(bits.TrailingZeros64(m))
	}
	// First set bit at or after the priority pointer...
	w := a.next >> 6
	if m := words[w] &^ (1<<(uint(a.next)&63) - 1); m != 0 {
		return a.grant(w<<6 + bits.TrailingZeros64(m))
	}
	for w++; w < len(words); w++ {
		if m := words[w]; m != 0 {
			return a.grant(w<<6 + bits.TrailingZeros64(m))
		}
	}
	// ...then wrap to the first set bit before it.
	for w = 0; w<<6 < a.next; w++ {
		if m := words[w]; m != 0 {
			idx := w<<6 + bits.TrailingZeros64(m)
			if idx >= a.next {
				break
			}
			return a.grant(idx)
		}
	}
	return -1
}

// grant records idx as the winner and advances the priority pointer
// past it, exactly as Arbitrate does.
func (a *RoundRobin) grant(idx int) int {
	a.next = idx + 1
	if a.next == a.n {
		a.next = 0
	}
	return idx
}

// NewRoundRobinBank returns count independent round-robin arbiters of
// the given input width as one contiguous slice — the
// struct-of-arrays layout the router uses so a tick's arbiter state
// sits on adjacent cache lines instead of behind per-arbiter pointers.
func NewRoundRobinBank(count, inputs int) []RoundRobin {
	bank := make([]RoundRobin, count)
	InitBank(bank, inputs)
	return bank
}

// InitBank readies a caller-owned (typically arena-backed) slice of
// round-robin arbiters with the given input width.
func InitBank(bank []RoundRobin, inputs int) {
	if inputs < 1 {
		//vichar:invariant construction-time wiring error, same contract as NewRoundRobin
		panic(fmt.Sprintf("arbiter: size must be positive, got %d", inputs))
	}
	for i := range bank {
		bank[i] = RoundRobin{n: inputs}
	}
}

// Matrix is a least-recently-served arbiter: a triangular matrix of
// precedence bits; the winner is the requester that has precedence
// over every other requester, and granting clears its precedence.
// This is the classical design used in VC router allocators.
type Matrix struct {
	n    int
	prec [][]bool // prec[i][j]: i has priority over j
}

// NewMatrix returns a matrix arbiter over n inputs with initial
// priority order 0 > 1 > ... > n-1.
func NewMatrix(n int) *Matrix {
	if n < 1 {
		panic(fmt.Sprintf("arbiter: size must be positive, got %d", n))
	}
	m := &Matrix{n: n, prec: make([][]bool, n)}
	for i := range m.prec {
		m.prec[i] = make([]bool, n)
	}
	m.Reset()
	return m
}

// Size returns the number of request inputs.
func (m *Matrix) Size() int { return m.n }

// Reset restores the initial priority order 0 > 1 > ... > n-1.
func (m *Matrix) Reset() {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			m.prec[i][j] = i < j
		}
	}
}

// Arbitrate grants the requester that has precedence over all other
// current requesters, then demotes it below everyone.
func (m *Matrix) Arbitrate(requests []bool) int {
	if len(requests) != m.n {
		//vichar:invariant a request vector sized differently from the arbiter means the caller wired the wrong port set
		panic(fmt.Sprintf("arbiter: got %d requests for a %d-input arbiter", len(requests), m.n))
	}
	winner := -1
	for i := 0; i < m.n; i++ {
		if !requests[i] {
			continue
		}
		ok := true
		for j := 0; j < m.n; j++ {
			if j != i && requests[j] && !m.prec[i][j] {
				ok = false
				break
			}
		}
		if ok {
			winner = i
			break
		}
	}
	if winner >= 0 {
		for j := 0; j < m.n; j++ {
			if j != winner {
				m.prec[winner][j] = false
				m.prec[j][winner] = true
			}
		}
	}
	return winner
}

var (
	_ Arbiter = (*RoundRobin)(nil)
	_ Arbiter = (*Matrix)(nil)
)
