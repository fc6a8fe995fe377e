// Package network is a lint fixture for the hot-path allocation
// contract: it declares its own Network.Step tick root, reaches its
// functions over every call-graph edge kind (direct calls, method
// values, func-typed fields, interface dispatch, literals), and is
// compiled by the linter like the real kernel — so escape-audit
// markers sit where the compiler reports a heap decision, and
// hot-path-alloc markers on the five constructs it cannot see. Lines
// expecting a diagnostic carry an end-of-line marker checked by the
// engine's tests.
package network

import "fmt"

// flitT is a minimal payload so composite literals have a type.
type flitT struct{ seq int }

// buffer is the interface-dispatch plug point: Step reaches ring.push
// only through it.
type buffer interface {
	push(f *flitT)
}

// ring is the buffer implementation the dispatch fan-out must find.
type ring struct{ items []*flitT }

func (r *ring) push(f *flitT) {
	r.items = append(r.items, f) //!lint hot-path-alloc
}

func (r *ring) clear() { r.items = r.items[:0] }

// Network mirrors the real kernel's shape: a func-typed phase field
// bound to a method at construction time.
type Network struct {
	name      string
	steps     int
	counts    []int
	rings     []*ring
	bufs      []buffer
	scratch   []int
	deliverFn func(shard int)

	// Sinks that make a value escape when it is stored.
	keepInts  []int
	keepStr   string
	keepFn    func() int
	keepAny   any
	keepFlit  *flitT
	keepBytes []byte
}

// NewNet is the constructor: its allocations are not hot (it is not
// reachable from Step) and must stay unflagged.
func NewNet(k int) *Network {
	n := &Network{counts: make([]int, k), name: "net"}
	for i := 0; i < k; i++ {
		r := &ring{}
		n.rings = append(n.rings, r)
		n.bufs = append(n.bufs, r)
	}
	n.deliverFn = n.deliverShard
	return n
}

// Step is this fixture's tick root (rootSpec network/Network/Step).
func (n *Network) Step() {
	n.runSharded(n.deliverFn)
	n.dispatch()
	_ = n.describe(len(n.counts)) //!lint escape-audit
	_ = n.label(n.name)
	n.compute()
	n.escapes(int64(n.steps))
	n.stackOnly()
	apply(n.bump) // a method value that does not outlive the call: no closure is allocated
}

// runSharded mimics the kernel's phase driver.
func (n *Network) runSharded(fn func(shard int)) {
	for s := 0; s < len(n.counts); s++ {
		fn(s)
	}
}

// deliverShard is reached only through the deliverFn field: the
// func-field fan-out must mark it hot.
func (n *Network) deliverShard(shard int) {
	n.counts[shard] = shard
	n.scratch = append(n.scratch, shard) //!lint hot-path-alloc
}

// dispatch reaches ring.push through interface dispatch; the flit it
// hands over escapes through the interface call.
func (n *Network) dispatch() {
	f := &flitT{seq: n.steps} //!lint escape-audit
	for _, b := range n.bufs {
		b.push(f)
	}
	defer n.bump() // open-coded defer: no allocation, no finding
}

// escapes holds the constructs only the compiler's report detects,
// each stored so that it does escape.
//
//go:noinline
func (n *Network) escapes(now int64) {
	n.keepInts = make([]int, n.steps)         //!lint escape-audit
	n.keepFn = func() int { return int(now) } //!lint escape-audit
	n.keepAny = now                           //!lint escape-audit
	n.keepFlit = &flitT{seq: n.steps}         //!lint escape-audit
	n.keepFn = n.count                        //!lint escape-audit
	n.keepInts = []int{n.steps, 2}            //!lint escape-audit
	n.keepFlit = new(flitT)                   //!lint escape-audit
	n.keepStr = n.keepStr + "x"               //!lint escape-audit hot-path-alloc
	n.keepBytes = []byte(n.keepStr)           //!lint escape-audit hot-path-alloc
}

// stackOnly holds the same constructs used locally: the compiler
// keeps them on the stack and the audit is silent, so none needs a
// waiver. The five constructs that can allocate at run time without
// the compiler saying so stay flagged syntactically.
func (n *Network) stackOnly() {
	sizes := make([]int, 8)
	f := flitT{seq: len(sizes)}
	p := &f
	add := func(d int) int { return p.seq + d }
	n.steps += add(len([]int{1, 2}))
	byName := map[string]int{"net": 1} //!lint hot-path-alloc
	n.steps += byName["net"]
	key := []byte(n.name) //!lint hot-path-alloc
	n.steps += len(key)
	n.steps += len(n.name + ":") //!lint hot-path-alloc
	done := make(chan int, 1)    //!lint hot-path-alloc
	n.steps += cap(done)
}

// observe holds the waiver cases. A reasoned //vichar:alloc explains
// exactly one statement; a bare one explains nothing.
func (n *Network) observe() {
	//vichar:alloc fixture: the staging row grows to steady capacity once, then is reused
	n.scratch = append(n.scratch, 2)
	//vichar:alloc
	n.scratch = append(n.scratch, 3) //!lint hot-path-alloc

	// The statement after a waived one is not covered by it.
	//vichar:alloc fixture: one table per run
	n.keepInts = make([]int, n.steps)
	n.keepFlit = new(flitT) //!lint escape-audit

	// A waiver above a multi-line statement covers it to its last line.
	//vichar:alloc fixture: label rebuilt once per measurement window
	n.keepStr = fmt.Sprint(
		n.steps,
		len(n.counts))
	n.keepStr = fmt.Sprint(
		n.steps,       //!lint escape-audit
		len(n.counts)) //!lint escape-audit

	// Written after code, a waiver covers its own line only.
	n.keepFlit = new(flitT) //vichar:alloc fixture: one record per run
	n.keepFlit = new(flitT) //!lint escape-audit

	// A waiver above a call that takes a literal does not reach into
	// the literal's body.
	//vichar:alloc fixture: the callback itself is built once
	n.keepFn = func() int {
		n.keepFlit = new(flitT) //!lint escape-audit
		return 0
	}
}

// describe allocates through fmt by boxing its argument. It is small
// enough to be inlined, and an allocation the compiler inlines is
// reported in the caller too — Step's call carries the same marker,
// and would need its own waiver.
func (n *Network) describe(v int) string {
	return fmt.Sprintf("net-%d", v) //!lint escape-audit
}

// label allocates by non-constant string concatenation.
func (n *Network) label(s string) string {
	return "net:" + s //!lint escape-audit hot-path-alloc
}

// compute calls a closure over a local in place: nothing escapes.
func (n *Network) compute() {
	base := len(n.scratch)
	grow := func() int { return base + 1 }
	n.counts[0] = grow()
	n.observe()
}

// count is reached as a method value stored in escapes. A panic
// call's arguments are exempt (terminating error path, owned by
// panic-discipline).
func (n *Network) count() int {
	if n.steps < 0 {
		//vichar:invariant fixture: the step counter never goes backwards
		panic(fmt.Sprintf("network %s: negative step count %d",
			n.name+"!", n.steps))
	}
	return n.steps
}

// bump is reached as a method value (apply(n.bump) in Step).
func (n *Network) bump() { n.steps++ }

// apply models a callback sink; the method value passed to it is
// treated as called by the passer.
func apply(f func()) { f() }

// reset is only called from auditPass.
func (n *Network) reset() { n.steps = 0 }

// auditPass is not hot (nothing on the tick path calls it), so its
// allocations stay unflagged.
func (n *Network) auditPass() {
	n.keepInts = make([]int, len(n.counts))
	n.keepInts = append(n.keepInts, n.steps)
	n.keepStr = fmt.Sprint(n.keepInts)
	n.reset()
}
