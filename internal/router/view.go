package router

import (
	"fmt"

	"vichar/internal/config"
	"vichar/internal/core"
	"vichar/internal/flit"
	"vichar/internal/snap"
	"vichar/internal/soa"
)

// CreditView is the upstream mirror of a downstream input port's
// buffer state, maintained at each router output port (and at each
// network interface for the local injection port). It answers the
// two questions flow control asks: can one more flit be sent on a
// given VC (slot credit), and can a new packet be granted a VC (VC
// availability) — for ViChaR, the latter is the Token Dispenser.
type CreditView interface {
	// CanSendFlit reports whether a flit may be sent on vc this cycle
	// (a downstream slot is available to it).
	CanSendFlit(vc int) bool
	// OnSend debits the view for a departing flit.
	OnSend(f *flit.Flit)
	// OnCredit credits the view for a downstream departure.
	OnCredit(c flit.Credit)
	// FreeVC returns a VC of the given kind (escape or regular) that
	// could be granted to a new packet of the class this cycle, or -1.
	// It only peeks. Each VC class (request, response) owns a disjoint
	// contiguous chunk of the regular and escape VC ID ranges
	// (vcLayout.span), so a grant for one class can never consume a
	// channel the other class depends on; every non-transaction run has
	// the single class 0. Views with a fixed VC set scan the chunk
	// round-robin from the non-negative chunk-relative offset from; the
	// Token Dispenser ignores it and names its lowest free token.
	FreeVC(class int, escape bool, from int) int
	// ClaimVC grants vc, which FreeVC offered to the class this cycle,
	// to a new packet; the caller routes all the packet's flits onto it.
	// Claiming a VC that is not free panics.
	ClaimVC(class, vc int)
	// FreeSlots returns the downstream slots currently available to
	// new flits (summed over VCs for partitioned buffers); used by
	// adaptive routing to score candidate outputs.
	FreeSlots() int
	// OutstandingVCs returns the number of VCs currently granted and
	// not yet released.
	OutstandingVCs() int
	// OutstandingFlits returns the view's debit: flits sent minus
	// credits received. The invariant auditor balances it against the
	// link's in-flight flits, the downstream occupancy and the
	// in-flight credits.
	OutstandingFlits() int
	// OutstandingOn is OutstandingFlits restricted to one VC: the
	// per-VC form of the same balance, which a loaded checkpoint must
	// satisfy before any credit for that VC is applied.
	OutstandingOn(vc int) int
	// Holds reports whether vc is granted to a packet whose tail the
	// view has not seen leave — what must be true of the output VC any
	// active input VC of a loaded checkpoint names.
	Holds(vc int) bool
	// State walks the view's mutable mirror state for a checkpoint
	// (snapshot.go); kind and shape are wiring and do not travel.
	State(c *snap.Codec)
}

// classSpan splits the VC ID range [lo, hi) into classes contiguous
// chunks and returns chunk class; earlier chunks absorb any
// remainder. With one class the range is returned unchanged, so every
// non-transaction configuration keeps today's allocation behavior
// bit-for-bit.
func classSpan(lo, hi, classes, class int) (int, int) {
	n := hi - lo
	if classes <= 1 || n <= 0 {
		return lo, hi
	}
	size, rem := n/classes, n%classes
	start := lo + class*size + min(class, rem)
	end := start + size
	if class < rem {
		end++
	}
	return start, end
}

// vcLayout is the VC ID layout of one port: regular IDs [0, escBase),
// escape IDs [escBase, total) — escBase == total when there is no
// escape set — each range chunked among classes VC classes (1 =
// unpartitioned).
type vcLayout struct {
	escBase, total, classes int
}

// layoutOf returns the VC ID layout of every port of the
// configuration.
func layoutOf(cfg *config.Config) vcLayout {
	l := vcLayout{escBase: cfg.MaxVCs(), total: cfg.MaxVCs(), classes: cfg.VCClasses()}
	if cfg.NeedsEscape() {
		l.escBase -= cfg.EscapeVCs
	}
	return l
}

// Span returns the VC ID chunk [lo, hi) that a credit view of the
// configuration grants a (class, escape) kind from — the chunk FreeVC's
// offset is relative to.
func Span(cfg *config.Config, class int, escape bool) (lo, hi int) {
	return layoutOf(cfg).span(class, escape)
}

// span returns the class's chunk of the ID range of the chosen kind.
func (l vcLayout) span(class int, escape bool) (lo, hi int) {
	if escape {
		return classSpan(l.escBase, l.total, l.classes, class)
	}
	return classSpan(0, l.escBase, l.classes, class)
}

// scanStart returns the VC a round-robin scan of the chunk [lo, hi)
// starts at: the chunk-relative offset from, taken modulo the chunk
// size, with no divide for an offset inside the chunk (an empty chunk
// is never scanned).
func scanStart(lo, hi, from int) int {
	if lo+from < hi || lo == hi {
		return lo + from
	}
	return lo + from%(hi-lo)
}

// kinds returns the number of (class, escape) kinds of the layout: one
// per class, doubled when there is an escape set.
func (l vcLayout) kinds() int {
	if l.escBase < l.total {
		return 2 * l.classes
	}
	return l.classes
}

// kind returns the index of the (class, escape) kind, in the router's
// class<<1|escape order when there is an escape set.
func (l vcLayout) kind(class int, escape bool) int {
	if l.escBase == l.total {
		return class
	}
	k := class << 1
	if escape {
		k |= 1
	}
	return k
}

// classOf returns the class whose regular or escape chunk contains vc.
func (l vcLayout) classOf(vc int) int {
	for c := 0; c < l.classes; c++ {
		if lo, hi := l.span(c, false); vc >= lo && vc < hi {
			return c
		}
		if lo, hi := l.span(c, true); vc >= lo && vc < hi {
			return c
		}
	}
	return 0
}

// NewCreditView builds the view matching the configuration's buffer
// architecture, mirroring one downstream input port.
func NewCreditView(cfg *config.Config) CreditView { return NewCreditViewIn(nil, cfg) }

// NewCreditViewIn is NewCreditView drawing the view's per-VC counters
// and flags from the network arena (nil-arena safe), so the credit
// state the tick path debits sits beside the rest of the router's hot
// state (DESIGN.md §10).
func NewCreditViewIn(a *Arena, cfg *config.Config) CreditView {
	escape := 0
	if cfg.NeedsEscape() {
		escape = cfg.EscapeVCs
	}
	classes := cfg.VCClasses()
	switch cfg.Arch {
	case config.Generic:
		return newGenericView(a.Soa(), cfg.VCs, cfg.VCDepth, escape, classes)
	case config.ViChaR:
		return newViCharView(a.Soa(), cfg.BufferSlots, cfg.MaxVCs(), escape, classes)
	case config.DAMQ, config.FCCB:
		return newSharedView(a.Soa(), cfg.VCs, cfg.BufferSlots, escape, classes)
	default:
		panic(fmt.Sprintf("router: unknown buffer architecture %v", cfg.Arch))
	}
}

// genericView mirrors a statically partitioned buffer: one private
// credit counter per VC plus per-VC allocation state. Allocation is
// atomic: a VC is re-grantable only once fully drained, so it never
// holds flits of two packets.
type genericView struct {
	vcLayout
	depth   int16
	credits []int16 // per VC; config.MaxBufferSlots bounds the depth
	open    []bool  // a packet holds the VC and its tail has not been sent
}

func newGenericView(a *soa.Arena, vcs, depth, escape, classes int) *genericView {
	v := &genericView{
		vcLayout: vcLayout{escBase: vcs - escape, total: vcs, classes: classes},
		depth:    int16(depth),
		credits:  a.TakeInt16s(vcs),
		open:     a.TakeBools(vcs),
	}
	for i := range v.credits {
		v.credits[i] = v.depth
	}
	return v
}

func (v *genericView) CanSendFlit(vc int) bool {
	return vc >= 0 && vc < len(v.credits) && v.credits[vc] > 0
}

func (v *genericView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without credit on vc %d", f.VC))
	}
	v.credits[f.VC]--
	if f.IsTail() {
		v.open[f.VC] = false
	}
}

func (v *genericView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.credits) {
		//vichar:invariant a credit naming a VC the view does not mirror means the link is miswired
		panic(fmt.Sprintf("router: credit for unknown vc %d", c.VC))
	}
	v.credits[c.VC]++
	if v.credits[c.VC] > v.depth {
		//vichar:invariant more credits than depth means a duplicated or spurious credit upstream
		panic(fmt.Sprintf("router: credit overflow on vc %d", c.VC))
	}
}

// grantable reports whether the VC may be given to a new packet: no
// packet holds it and it has fully drained.
func (v *genericView) grantable(vc int) bool {
	return !v.open[vc] && v.credits[vc] == v.depth
}

func (v *genericView) FreeVC(class int, escape bool, from int) int {
	lo, hi := v.span(class, escape)
	vc := scanStart(lo, hi, from)
	for range hi - lo {
		if v.grantable(vc) {
			return vc
		}
		if vc++; vc == hi {
			vc = lo
		}
	}
	return -1
}

func (v *genericView) ClaimVC(class, vc int) {
	if vc < 0 || vc >= len(v.open) || !v.grantable(vc) {
		//vichar:invariant VA claims only a VC FreeVC offered within the same cycle
		panic(fmt.Sprintf("router: claim of ungrantable vc %d", vc))
	}
	v.open[vc] = true
}

func (v *genericView) FreeSlots() int {
	n := 0
	for _, c := range v.credits {
		n += int(c)
	}
	return n
}

func (v *genericView) OutstandingFlits() int {
	n := 0
	for _, c := range v.credits {
		n += int(v.depth - c)
	}
	return n
}

func (v *genericView) OutstandingOn(vc int) int { return int(v.depth - v.credits[vc]) }

func (v *genericView) Holds(vc int) bool { return v.open[vc] }

func (v *genericView) OutstandingVCs() int {
	n := 0
	for vc := range v.open {
		if v.open[vc] || v.credits[vc] < v.depth {
			n++
		}
	}
	return n
}

// sharedView mirrors a DAMQ or FC-CB input port: a shared slot pool
// with a fixed set of VCs; packets may queue back-to-back within a
// queue (their head-of-line weakness).
//
// One slot is permanently reserved per queue — the classical DAMQ
// provision — so every queue can always accept at least one flit.
// Without it, a pool filled by packets waiting for resources held by
// packets whose flits cannot enter the pool deadlocks (hold-and-wait
// through the shared storage, independent of routing acyclicity).
type sharedView struct {
	vcLayout
	slots      int
	sharedFree int     // pool slots beyond the per-queue reservations
	resFree    []bool  // per queue: reserved slot currently empty
	held       []int16 // per queue: flits resident downstream (at most slots)
	open       []bool
}

func newSharedView(a *soa.Arena, vcs, slots, escape, classes int) *sharedView {
	if slots < vcs {
		panic(fmt.Sprintf("router: shared view needs a reservable slot per VC, got %d slots for %d VCs", slots, vcs))
	}
	v := &sharedView{
		vcLayout:   vcLayout{escBase: vcs - escape, total: vcs, classes: classes},
		slots:      slots,
		sharedFree: slots - vcs,
		resFree:    a.TakeBools(vcs),
		held:       a.TakeInt16s(vcs),
		open:       a.TakeBools(vcs),
	}
	for i := range v.resFree {
		v.resFree[i] = true
	}
	return v
}

func (v *sharedView) CanSendFlit(vc int) bool {
	if vc < 0 || vc >= len(v.open) {
		return false
	}
	return v.sharedFree > 0 || v.resFree[vc]
}

func (v *sharedView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without shared credit on vc %d", f.VC))
	}
	if v.sharedFree > 0 {
		v.sharedFree--
	} else {
		v.resFree[f.VC] = false
	}
	v.held[f.VC]++
	if f.IsTail() {
		v.open[f.VC] = false
	}
}

func (v *sharedView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.open) || v.held[c.VC] == 0 {
		//vichar:invariant a credit for a VC with no resident flits means double-crediting — pool accounting corruption
		panic(fmt.Sprintf("router: stray shared credit on vc %d", c.VC))
	}
	v.held[c.VC]--
	// Refill the queue's reservation before the shared pool so the
	// queue always keeps its guaranteed slot.
	if !v.resFree[c.VC] {
		v.resFree[c.VC] = true
	} else {
		v.sharedFree++
		if v.sharedFree > v.slots-len(v.open) {
			//vichar:invariant free count exceeding unreserved capacity means a leaked reservation or double credit
			panic("router: shared credit overflow")
		}
	}
}

func (v *sharedView) FreeVC(class int, escape bool, from int) int {
	lo, hi := v.span(class, escape)
	vc := scanStart(lo, hi, from)
	for range hi - lo {
		if !v.open[vc] {
			return vc
		}
		if vc++; vc == hi {
			vc = lo
		}
	}
	return -1
}

func (v *sharedView) ClaimVC(class, vc int) {
	if vc < 0 || vc >= len(v.open) || v.open[vc] {
		//vichar:invariant VA claims only a VC FreeVC offered within the same cycle
		panic(fmt.Sprintf("router: claim of ungrantable vc %d", vc))
	}
	v.open[vc] = true
}

func (v *sharedView) FreeSlots() int { return v.sharedFree }

func (v *sharedView) OutstandingFlits() int {
	n := 0
	for _, h := range v.held {
		n += int(h)
	}
	return n
}

func (v *sharedView) OutstandingOn(vc int) int { return int(v.held[vc]) }

func (v *sharedView) Holds(vc int) bool { return v.open[vc] }

func (v *sharedView) OutstandingVCs() int {
	n := 0
	for _, o := range v.open {
		if o {
			n++
		}
	}
	return n
}

// vicharView mirrors a ViChaR input port: a shared slot pool plus the
// Token (VC) Dispenser. This is where the paper's per-output-port UCL
// modules live: tokens is the VC Availability Tracker, one bit per VC
// ID (escape set included, a clear bit a token out), and FreeVC plus
// ClaimVC are the Token Dispenser, granting the lowest free ID of the
// requesting kind's span.
//
// Every dispensed token carries a one-slot reservation, so an in-use
// VC can always land at least one flit in the UBS even when the
// shared pool is exhausted — the provision that makes the paper's
// "vk single-slot VCs" extreme (Figure 5) live, and that prevents
// hold-and-wait deadlock through the shared storage: without it, a
// pool full of packets waiting for tokens held by packets whose flits
// cannot enter the pool wedges permanently. Because the dispenser has
// exactly as many tokens as the UBS has slots, reservations can never
// oversubscribe the pool.
//
// The reservation is parked only while the VC has no flit resident
// downstream: a resident flit guarantees the VC's progress by itself
// (it drains along the routing function's acyclic chain, and its
// departure credit re-parks the reservation if it was the last).
// Maintained invariant for every granted VC: reservation parked OR at
// least one flit resident. This keeps busy VCs from idling buffer
// capacity while preserving the deadlock-freedom guarantee. Only a VC
// whose token is out has a parked reservation (ClaimVC parks it, the
// release credit clears it), so resFree alone answers CanSendFlit.
// The regular and escape ID ranges are chunked per VC class, and
// grants come from the requesting class's chunk only (vcLayout.span).
// When the port has more than one (class, escape)
// kind, one pool slot per kind is carved out as that kind's grant
// reserve (kindRes): a kind can take a token — and with it the token's
// landing-slot reservation — even when the shared pool has been
// exhausted by the others. For classes this makes the response class's
// progress independent of request-class congestion, which breaks the
// request/response protocol-deadlock cycle through the unified
// storage. For the escape set it keeps Duato's escape path open when
// adaptive traffic has filled the downstream pool: without it every
// waiting head can be on the escape path with no slot to carry an
// escape token's reservation, and the network wedges. Slots freed by a
// VC refill its own kind's reserve before the shared pool.
type vicharView struct {
	vcLayout
	slots      int
	sharedFree int
	tokens     core.Tracker // per VC: set while the token is free
	resFree    []bool       // per VC: reservation available (token outstanding)
	held       []int16      // per VC: flits resident downstream (at most slots)
	kindRes    []bool       // per (class, escape) kind: grant-reserve slot currently free; nil with one kind
}

func newViCharView(a *soa.Arena, slots, vcs, escape, classes int) *vicharView {
	v := &vicharView{
		vcLayout:   vcLayout{escBase: vcs - escape, total: vcs, classes: classes},
		slots:      slots,
		sharedFree: slots,
		resFree:    a.TakeBools(vcs),
		held:       a.TakeInt16s(vcs),
	}
	v.tokens.Init(vcs, a)
	if kinds := v.kinds(); kinds > 1 {
		if slots <= kinds {
			panic(fmt.Sprintf("router: UBS needs more slots (%d) than VC kinds (%d)", slots, kinds))
		}
		v.sharedFree = slots - kinds
		v.kindRes = a.TakeBools(kinds)
		for k := range v.kindRes {
			v.kindRes[k] = true
		}
	}
	return v
}

// freeSlot returns the slot a departing flit (or unparked reservation)
// of vc just vacated: the VC's kind reserve refills first so every
// kind keeps its token-grant guarantee, then the shared pool.
func (v *vicharView) freeSlot(vc int) {
	if v.kindRes != nil {
		if k := v.kind(v.classOf(vc), vc >= v.escBase); !v.kindRes[k] {
			v.kindRes[k] = true
			return
		}
	}
	v.sharedFree++
}

// grantSlotFree reports whether a token grant of the kind could carry
// its one-slot reservation.
func (v *vicharView) grantSlotFree(class int, escape bool) bool {
	return v.sharedFree > 0 || (v.kindRes != nil && v.kindRes[v.kind(class, escape)])
}

func (v *vicharView) CanSendFlit(vc int) bool {
	if vc < 0 || vc >= len(v.resFree) {
		return false
	}
	return v.sharedFree > 0 || v.resFree[vc]
}

func (v *vicharView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without UBS credit on vc %d", f.VC))
	}
	if v.sharedFree > 0 {
		v.sharedFree--
	} else {
		v.resFree[f.VC] = false
	}
	v.held[f.VC]++
	// A resident flit carries the VC's progress guarantee; unpark the
	// reservation while it does.
	if v.resFree[f.VC] {
		v.resFree[f.VC] = false
		v.freeSlot(f.VC)
	}
}

func (v *vicharView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.held) || v.held[c.VC] == 0 {
		//vichar:invariant a credit for an ungranted or empty VC means Token Dispenser / UBS bookkeeping divergence
		panic(fmt.Sprintf("router: stray UBS credit on vc %d", c.VC))
	}
	v.held[c.VC]--
	switch {
	case c.ReleaseVC:
		if v.held[c.VC] != 0 {
			//vichar:invariant tails depart last, so a release credit with residents means flit reordering or a lost credit
			panic(fmt.Sprintf("router: VC %d released with %d flits resident", c.VC, v.held[c.VC]))
		}
		// Tails depart last, so the reservation cannot be parked
		// here; the departing flit's slot returns to the pool.
		v.resFree[c.VC] = false
		v.tokens.Release(c.VC)
		v.freeSlot(c.VC)
	case v.held[c.VC] == 0:
		// Last resident flit left mid-packet: re-park the reservation
		// so the VC keeps its guaranteed landing slot.
		v.resFree[c.VC] = true
	default:
		v.freeSlot(c.VC)
	}
	if v.sharedFree > v.slots-len(v.kindRes) {
		//vichar:invariant free slots exceeding pool capacity means a slot was credited twice
		panic("router: UBS credit overflow")
	}
}

// FreeVC names the kind's lowest free token while a slot is left to
// carry its reservation.
func (v *vicharView) FreeVC(class int, escape bool, from int) int {
	if !v.grantSlotFree(class, escape) {
		return -1
	}
	return v.tokens.FirstInRange(v.span(class, escape))
}

// ClaimVC dispenses token vc and moves one slot from the shared pool
// (or the kind's grant reserve) into the new VC's reservation.
func (v *vicharView) ClaimVC(class, vc int) {
	v.tokens.Take(vc)
	if v.sharedFree > 0 {
		v.sharedFree--
	} else if k := v.kind(class, vc >= v.escBase); v.kindRes != nil && v.kindRes[k] {
		v.kindRes[k] = false
	} else {
		//vichar:invariant VA claims only a token FreeVC offered within the same cycle, when a slot was free for its reservation
		panic(fmt.Sprintf("router: claim of vc %d with no slot for its reservation", vc))
	}
	v.resFree[vc] = true
}

func (v *vicharView) FreeSlots() int { return v.sharedFree }

func (v *vicharView) OutstandingFlits() int {
	n := 0
	for _, h := range v.held {
		n += int(h)
	}
	return n
}

func (v *vicharView) OutstandingOn(vc int) int { return int(v.held[vc]) }

func (v *vicharView) Holds(vc int) bool { return !v.tokens.Available(vc) }

func (v *vicharView) OutstandingVCs() int { return v.tokens.Size() - v.tokens.Free() }

// Admission is the per-class back-pressure a network-interface
// endpoint exerts on its ejection port. Peek reports whether a new
// packet of the class may be granted ejection this cycle; Admit
// reserves the endpoint resource that grant will occupy. Both run
// inside the owning router's compute phase and must touch only state
// owned by that node (the memory-controller service queue of
// internal/txn), reading deterministically from the committed cycle
// state.
type Admission interface {
	Peek(class int) bool
	Admit(class int)
}

// sinkView models the processing element at the end of a local
// ejection port: it consumes one flit per cycle with effectively
// infinite buffering, so it always has credit — and, unless an
// Admission gate is installed, always has a VC.
type sinkView struct {
	outstanding int
	admit       Admission
}

// NewSinkView returns the ejection-side credit view.
func NewSinkView() CreditView { return &sinkView{} }

// NewSinkViewWith returns an ejection-side credit view whose VC
// grants are gated by the admission policy (nil behaves like
// NewSinkView). This is how a finite network-interface queue refuses
// ejection to a packet class — the real NIU buffer bound that makes
// protocol deadlock reachable.
func NewSinkViewWith(admit Admission) CreditView { return &sinkView{admit: admit} }

func (v *sinkView) CanSendFlit(vc int) bool { return true }

func (v *sinkView) OnSend(f *flit.Flit) {
	if f.IsHead() {
		v.outstanding++
	}
	if f.IsTail() {
		v.outstanding--
	}
}

func (v *sinkView) OnCredit(c flit.Credit) {}

// FreeVC offers VC 0 — the processing element consumes flits of any
// number of interleaved packets — unless the admission gate refuses
// the class this cycle.
func (v *sinkView) FreeVC(class int, escape bool, from int) int {
	if v.admit != nil && !v.admit.Peek(class) {
		return -1
	}
	return 0
}

// ClaimVC reserves the admission slot FreeVC peeked.
func (v *sinkView) ClaimVC(class, vc int) {
	if v.FreeVC(class, false, 0) != vc {
		//vichar:invariant VA claims only the VC FreeVC offered within the same cycle; a refused admission means the gate changed under the grant
		panic(fmt.Sprintf("router: sink claim of vc %d refused", vc))
	}
	if v.admit != nil {
		v.admit.Admit(class)
	}
}

func (v *sinkView) FreeSlots() int      { return 1 << 20 }
func (v *sinkView) OutstandingVCs() int { return v.outstanding }

// OutstandingFlits is always zero at the sink: the processing element
// consumes flits immediately and sends no credits back.
func (v *sinkView) OutstandingFlits() int { return 0 }

func (v *sinkView) OutstandingOn(int) int { return 0 }

func (v *sinkView) Holds(int) bool { return true }

var (
	_ CreditView = (*genericView)(nil)
	_ CreditView = (*sharedView)(nil)
	_ CreditView = (*vicharView)(nil)
	_ CreditView = (*sinkView)(nil)
)
