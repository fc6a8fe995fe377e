// The shard executor of the two-phase cycle kernel (DESIGN.md §10).
//
// This file is the single place under internal/ where goroutines may
// be spawned — vichar-lint's concurrency-ownership rule rejects `go`
// statements anywhere else. Confining the lanes here keeps the
// ownership contract auditable: every parallel region in the
// simulator runs through shardExecutor.run, whose callers partition
// state by router ID and merge global accounting serially in index
// order, so lane scheduling can never leak into results.
package network

import (
	"runtime"
	"sync/atomic"
)

const (
	// cacheLine pads per-lane and per-shard mutable state, so one core's
	// writes never invalidate a line another core polls (DESIGN.md §10).
	cacheLine = 64
	// spinBudget is how many polls a waiter makes before a helper parks
	// or the caller starts yielding: at 0.2-1 ns a poll, several times
	// the 15-26 µs serial sub-phase of a 16x16 mesh, yet short enough
	// that an idle simulator stops burning CPU within a millisecond.
	spinBudget = 1 << 18
)

// shardExecutor runs per-shard closures on a fixed set of lanes with a
// completion barrier. Lane l executes the same contiguous block of
// shards in every phase, so a shard's routers stay in one core's
// cache. Lane 0 is the goroutine that calls run; every other lane is a
// helper goroutine, started lazily on the first parallel Step and
// alive until the owning Network is closed (or finalized).
type shardExecutor struct {
	shards  int
	helpers []helper
	// fn is the closure of the batch in flight, nil for the stop batch:
	// written before epoch is bumped, cleared after the barrier.
	fn func(shard int)
	_  [cacheLine]byte
	// epoch counts released batches; helpers poll it.
	epoch atomic.Uint64
	_     [cacheLine - 8]byte
	// pending counts helpers still running the batch; the caller polls it.
	pending atomic.Int32
	_       [cacheLine - 4]byte
}

// helper is one helper lane's parking state: parked is set by the
// helper before it blocks on wake and cleared by whoever claims the
// wake-up — release, which then sends, or the helper itself.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// newShardExecutor starts min(shards, GOMAXPROCS, NumCPU) lanes: a
// spinning lane without a processor of its own could only steal one
// from the lane it waits for. With one lane there are no helpers and
// run is the inline loop.
func newShardExecutor(shards int) *shardExecutor {
	lanes := min(shards, runtime.GOMAXPROCS(0), runtime.NumCPU())
	//vichar:alloc one-time lazy executor construction on the first parallel Step; it lives for the network's lifetime
	e := &shardExecutor{shards: shards, helpers: make([]helper, lanes-1)}
	for i := range e.helpers {
		//vichar:alloc one wake channel per helper, made once with the executor
		e.helpers[i].wake = make(chan struct{}, 1)
		//vichar:alloc the helper goroutines are spawned once and reused for every subsequent phase barrier
		go e.help(i + 1)
	}
	return e
}

// runLane runs the lane's block of the batch: a pure function of
// (shards, lanes), so the shard→lane map never changes between batches.
func (e *shardExecutor) runLane(lane int) {
	fn := e.fn
	for s, hi := chunkBounds(e.shards, len(e.helpers)+1, lane); s < hi; s++ {
		fn(s)
	}
}

// help is one helper lane: it waits for each released batch — polling
// epoch, then parked on its wake channel once spinBudget is spent — and
// runs its block, until the stop batch. Helpers reference the executor
// only, never the Network, so an idle executor does not keep its
// network reachable and the network's finalizer can stop it.
func (e *shardExecutor) help(lane int) {
	h := &e.helpers[lane-1]
	for seen := uint64(0); ; seen++ {
		for spins := 0; e.epoch.Load() == seen; spins++ {
			if spins < spinBudget {
				continue
			}
			h.parked.Store(true)
			if e.epoch.Load() == seen || !h.parked.CompareAndSwap(true, false) {
				<-h.wake
			}
		}
		stop := e.fn == nil
		if !stop {
			e.runLane(lane)
		}
		e.pending.Add(-1)
		if stop {
			return
		}
	}
}

// release publishes fn as the next batch and wakes parked helpers.
func (e *shardExecutor) release(fn func(shard int)) {
	e.fn = fn
	e.pending.Store(int32(len(e.helpers)))
	e.epoch.Add(1)
	for i := range e.helpers {
		if h := &e.helpers[i]; h.parked.Load() && h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// run executes fn(shard) for every shard across the lanes and returns
// once all of them have completed (the phase barrier). fn must confine
// its writes to state owned by its shard; any cross-shard accounting
// must be buffered per shard and merged by the caller after run
// returns, in shard index order.
func (e *shardExecutor) run(fn func(shard int)) {
	e.release(fn)
	e.runLane(0)
	e.await()
	e.fn = nil
}

// await returns once every helper is through the released batch. Past
// spinBudget the caller yields between polls, so a helper that has no
// processor of its own gets this one.
func (e *shardExecutor) await() {
	for spins := 0; e.pending.Load() != 0; spins++ {
		if spins >= spinBudget {
			runtime.Gosched()
		}
	}
}

// stop ends the helpers, spinning or parked, and returns once each has
// left its loop. The executor must be idle (no run in flight).
func (e *shardExecutor) stop() {
	e.release(nil)
	e.await()
}

// execHandle is the Network's reference to its executor. The Network
// itself is in a reference cycle (its bound phase closures point back
// at it), which a finalizer would keep alive for ever, and the executor
// is held by its helpers; the handle is neither, so it becomes
// unreachable with the network and its finalizer stops the helpers.
type execHandle struct{ *shardExecutor }

// runSharded executes fn over every shard: inline for the serial
// kernel, across the lane executor otherwise. The executor is created
// on first use; a finalizer backstops Close for networks that are
// dropped without it.
func (n *Network) runSharded(fn func(shard int)) {
	if n.shardCount <= 1 {
		fn(0)
		return
	}
	if n.exec == nil {
		//vichar:alloc one handle per lazily created executor
		n.exec = &execHandle{newShardExecutor(n.shardCount)}
		runtime.SetFinalizer(n.exec, (*execHandle).stop)
	}
	n.exec.run(fn)
}

// stopKernel releases the helper lanes; a later parallel Step restarts
// them.
func (n *Network) stopKernel() {
	if n.exec != nil {
		runtime.SetFinalizer(n.exec, nil)
		n.exec.stop()
		n.exec = nil
	}
}

// shardBounds returns the half-open router ID range [lo, hi) owned by
// the shard: contiguous, balanced partitions that are a pure function
// of (nodes, shardCount), so the shard→router map never depends on
// scheduling.
func (n *Network) shardBounds(shard int) (lo, hi int) {
	return chunkBounds(len(n.routers), n.shardCount, shard)
}

// chunkBounds partitions an arbitrary index space (audited links, an
// executor's shards) across count owners.
func chunkBounds(length, count, i int) (lo, hi int) {
	return i * length / count, (i + 1) * length / count
}
