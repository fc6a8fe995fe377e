package routing

import (
	"fmt"

	"vichar/internal/topology"
)

// EscapeTree is a fault-aware escape routing table: an up*/down*
// routing tree (Schroeder et al., Autonet, 1991) over the healthy
// links of a mesh whose schedule contains hard link failures. Escape
// traffic climbs the tree from the source toward the root until it
// reaches the lowest common ancestor, then descends to the
// destination. Every escape path is therefore a sequence of "up"
// hops followed by "down" hops on a spanning tree, so the channel
// dependency graph of the escape network is acyclic — up channels
// order by decreasing depth, down channels by increasing depth, and
// no legal path re-enters an up channel after a down hop — which
// preserves Duato deadlock freedom on any connected residual
// topology, wraparound links included.
//
// The tree is built once, from the topology with every scheduled
// KillLink excluded (the planned-outage model): escape traffic never
// touches a link that is going to die, so a mid-run failure cannot
// strand an escaped packet or require a table rebuild — rebuilding
// would mix routes from two different trees in flight and void the
// acyclicity argument. Adaptive (non-escape) traffic keeps using a
// doomed link until its kill cycle.
type EscapeTree struct {
	up []int // port toward the parent; -1 at the root
	// Node v's children are kids[kidLo[v]:kidHi[v]]: the BFS appends
	// each node's children in one run, so all of them share one array.
	kids         []treeChild
	kidLo, kidHi []int32
	tin          []int // Euler-tour interval: dst is in cur's subtree
	tout         []int // iff tin[cur] <= tin[dst] <= tout[cur]
}

type treeChild struct {
	node, port int
}

// children returns node v's children in the tree.
func (t *EscapeTree) children(v int) []treeChild { return t.kids[t.kidLo[v]:t.kidHi[v]] }

// NewEscapeTree builds the escape tree over the links of m for which
// usable returns true in both directions, rooted at node 0 with a
// deterministic BFS (ascending port order). It returns an error when
// the usable links do not connect the mesh.
func NewEscapeTree(m topology.Mesh, usable func(node, port int) bool) (*EscapeTree, error) {
	n := m.Nodes()
	t := &EscapeTree{
		up:    make([]int, n),
		kids:  make([]treeChild, 0, n-1),
		kidLo: make([]int32, n),
		kidHi: make([]int32, n),
		tin:   make([]int, n),
		tout:  make([]int, n),
	}
	seen := make([]bool, n)
	for i := range t.up {
		t.up[i] = -1
	}
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	seen[0] = true
	reached := 1
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		t.kidLo[cur] = int32(len(t.kids))
		for port := 0; port < topology.Local; port++ {
			nb, ok := m.Neighbor(cur, port)
			if !ok || seen[nb] {
				continue
			}
			if !usable(cur, port) || !usable(nb, topology.Opposite(port)) {
				continue
			}
			seen[nb] = true
			reached++
			t.up[nb] = topology.Opposite(port)
			t.kids = append(t.kids, treeChild{node: nb, port: port})
			queue = append(queue, nb)
		}
		t.kidHi[cur] = int32(len(t.kids))
	}
	if reached != n {
		return nil, fmt.Errorf("routing: escape tree cannot span the mesh: %d of %d nodes reachable over usable links", reached, n)
	}
	// Euler tour for O(children) subtree tests in NextHop.
	type frame struct{ node, child int }
	stack := make([]frame, 1, n)
	clock := 0
	t.tin[0] = clock
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if kids := t.children(f.node); f.child < len(kids) {
			c := kids[f.child]
			f.child++
			clock++
			t.tin[c.node] = clock
			stack = append(stack, frame{node: c.node})
			continue
		}
		t.tout[f.node] = clock
		stack = stack[:len(stack)-1]
	}
	return t, nil
}

// NextHop returns the escape output port at cur for a packet bound
// for dst: Local at the destination, down toward the subtree holding
// dst, otherwise up toward the root. Consecutive lookups along a path
// compose into one up-phase followed by one down-phase, which is what
// keeps the escape channel dependency graph acyclic.
func (t *EscapeTree) NextHop(cur, dst int) int {
	if cur == dst {
		return topology.Local
	}
	if t.tin[cur] <= t.tin[dst] && t.tin[dst] <= t.tout[cur] {
		for _, c := range t.children(cur) {
			if t.tin[c.node] <= t.tin[dst] && t.tin[dst] <= t.tout[c.node] {
				return c.port
			}
		}
		//vichar:invariant a destination inside cur's Euler interval must be inside exactly one child interval
		panic(fmt.Sprintf("routing: escape tree lost node %d below %d", dst, cur))
	}
	return t.up[cur]
}
