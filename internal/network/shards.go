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
// alive until the owning Network is closed (or finalized). A helper
// claims its block of each batch before running it, and lane 0, done
// with its own block, claims and runs every block still unclaimed: a
// helper that is parked or has no processor never stalls the phase.
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
}

// helper is one helper lane's state, alone on its cache line: lane 0
// reads one line per helper to learn whether the block is taken and
// whether it is done. claimed is the epoch of the last batch whose
// block someone claimed — the helper or lane 0 — so the block of batch
// epoch is unclaimed exactly while claimed is epoch-1; done is the
// epoch of the last batch whose block finished, on whichever lane.
// parked is set by the helper before it blocks on wake and cleared by
// whoever claims the wake-up — release, which then sends, or the
// helper itself.
type helper struct {
	claimed atomic.Uint64
	done    atomic.Uint64
	parked  atomic.Bool
	wake    chan struct{}
	_       [cacheLine - 32]byte
}

// claim takes lane's block of batch epoch for the caller, at most once
// per batch whoever asks.
func (e *shardExecutor) claim(lane int, epoch uint64) bool {
	c := &e.helpers[lane-1].claimed
	return c.Load() == epoch-1 && c.CompareAndSwap(epoch-1, epoch)
}

// newShardExecutor starts min(shards, processors()) lanes. With one
// lane there are no helpers and run is the inline loop.
func newShardExecutor(shards int) *shardExecutor {
	lanes := min(shards, processors())
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
// epoch, then parked on its wake channel once spinBudget is spent —
// and runs its block if it claims it first, until the stop batch.
// Helpers reference the executor only, never the Network, so an idle
// executor does not keep its network reachable and the network's
// finalizer can stop it.
func (e *shardExecutor) help(lane int) {
	h := &e.helpers[lane-1]
	for seen := uint64(0); ; {
		epoch := e.epoch.Load()
		for spins := 0; epoch == seen; spins++ {
			if spins >= spinBudget {
				h.parked.Store(true)
				if e.epoch.Load() == seen || !h.parked.CompareAndSwap(true, false) {
					<-h.wake
				}
			}
			epoch = e.epoch.Load()
		}
		seen = epoch
		if !e.claim(lane, epoch) {
			continue // lane 0 ran this block; a later batch may be out
		}
		stop := e.fn == nil
		if !stop {
			e.runLane(lane)
		}
		h.done.Store(epoch)
		if stop {
			return
		}
	}
}

// release publishes fn as the next batch, wakes parked helpers and
// returns the batch's epoch.
func (e *shardExecutor) release(fn func(shard int)) uint64 {
	e.fn = fn
	epoch := e.epoch.Add(1)
	for i := range e.helpers {
		if h := &e.helpers[i]; h.parked.Load() && h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
	return epoch
}

// run executes fn(shard) for every shard across the lanes and returns
// once all of them have completed (the phase barrier). fn must confine
// its writes to state owned by its shard; any cross-shard accounting
// must be buffered per shard and merged by the caller after run
// returns, in shard index order.
func (e *shardExecutor) run(fn func(shard int)) {
	epoch := e.release(fn)
	e.runLane(0)
	for lane := 1; lane <= len(e.helpers); lane++ {
		if e.claim(lane, epoch) {
			e.runLane(lane)
			e.helpers[lane-1].done.Store(epoch)
		}
	}
	for lane := 1; lane <= len(e.helpers); lane++ {
		e.await(lane, epoch)
	}
	e.fn = nil
}

// await returns once lane's block of batch epoch is done. Past
// spinBudget the caller yields between polls, so a helper that has no
// processor of its own gets this one.
func (e *shardExecutor) await(lane int, epoch uint64) {
	for spins := 0; e.helpers[lane-1].done.Load() != epoch; spins++ {
		if spins >= spinBudget {
			runtime.Gosched()
		}
	}
}

// stop ends the helpers, spinning or parked, and returns once each has
// left its loop: the stop batch is the one batch lane 0 never claims.
// The executor must be idle (no run in flight).
func (e *shardExecutor) stop() {
	epoch := e.release(nil)
	for lane := 1; lane <= len(e.helpers); lane++ {
		e.await(lane, epoch)
	}
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

// processors is how many lanes can each have a processor of their own:
// a spinning lane without one could only steal it from the lane it
// waits for.
func processors() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// minLaneRouters is the crossover of the default kernel: Workers 0
// gives each lane at least this many routers. Measured on a 2-CPU
// host, a 4x4 mesh (8 routers a lane) stepped 16 % slower on two
// lanes than on one, while an 8x8 (32 a lane) gained at every load,
// from +13 % at rate 0.05 to +44 % at 0.30.
const minLaneRouters = 32

// kernelShards resolves Config.Workers to the kernel's shard count for
// a mesh of nodes routers: 0 is one shard per processor, but no more
// than one per minLaneRouters routers; anything else is taken as
// given. Either way it is at least one and at most one per router.
func kernelShards(workers, nodes int) int {
	if workers == 0 {
		workers = min(processors(), nodes/minLaneRouters)
	}
	return max(1, min(workers, nodes))
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
