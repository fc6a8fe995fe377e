package network

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"vichar/internal/config"
)

// goid returns the calling goroutine's ID, parsed from its stack
// header — the only way a test can tell lanes apart.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// withProcs runs the test body at the given GOMAXPROCS, skipping on a
// host with fewer CPUs (lanes are capped by both).
func withProcs(t *testing.T, procs int) {
	t.Helper()
	if runtime.NumCPU() < procs {
		t.Skipf("needs %d CPUs, host has %d", procs, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// eventually polls cond every millisecond until it holds, for at
// least thirty seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for tries := 0; !cond(); tries++ {
		if tries == 30_000 {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorLaneAffinity pins the shard→lane map: lanes clamp to
// GOMAXPROCS (4 shards on 2 processors are 2 lanes of 2 shards), the
// caller is lane 0, each lane runs one contiguous block in ascending
// order, and every run — whatever the phase closure — reuses the map.
// A helper that has not claimed its block when the caller finishes its
// own loses the whole block to the caller, so the map is read from
// the first batch the helper runs: it must first be spinning.
func TestExecutorLaneAffinity(t *testing.T) {
	withProcs(t, 2)
	e := newShardExecutor(4)
	defer e.stop()
	if lanes := len(e.helpers) + 1; lanes != 2 {
		t.Fatalf("4 shards at GOMAXPROCS=2 run on %d lanes, want 2", lanes)
	}
	me := goid()
	var ranOn [4]int
	record := func(shard int) { ranOn[shard] = goid() }
	eventually(t, "the helper to run a block", func() bool {
		e.run(record)
		return ranOn[2] != me
	})
	first := ranOn
	if first[0] != me || first[1] != me {
		t.Fatalf("shards 0,1 ran on goroutines %v, want the caller (%d) as lane 0", first[:2], me)
	}
	if first[2] != first[3] {
		t.Fatalf("shards 2,3 ran on goroutines %v, want one helper lane distinct from the caller", first[2:])
	}
	stolen := [4]int{me, me, me, me}
	for batch := 0; batch < 200; batch++ {
		ranOn = [4]int{}
		e.run(record)
		if ranOn != first && ranOn != stolen {
			t.Fatalf("batch %d ran shards on goroutines %v, want %v (or the helper's block on the caller)", batch, ranOn, first)
		}
	}
}

// TestExecutorRunsUnstartedLanes: a lane whose helper never starts a
// batch — here one never started at all, the limit of a helper
// descheduled for good — does not stall the phase: the caller claims
// and runs its block, every shard exactly once per batch and in
// ascending order within a block. Helpers started late join at the
// next unclaimed batch, and stop still reaps them.
func TestExecutorRunsUnstartedLanes(t *testing.T) {
	e := &shardExecutor{shards: 7, helpers: make([]helper, 2)}
	for i := range e.helpers {
		e.helpers[i].wake = make(chan struct{}, 1)
	}
	me := goid()
	var order []int
	e.run(func(shard int) {
		if goid() != me {
			t.Errorf("shard %d left the calling goroutine with no helper started", shard)
		}
		order = append(order, shard)
	})
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("run with unstarted helpers visited shards %v, want 0..6 once each in order", order)
	}

	withProcs(t, 2)
	before := runtime.NumGoroutine()
	go e.help(1)
	go e.help(2)
	var ran [7]int
	for batch := 1; batch <= 300; batch++ {
		e.run(func(shard int) { ran[shard]++ })
		for s, got := range ran {
			if got != batch {
				t.Fatalf("batch %d: shard %d ran %d times in all, want %d", batch, s, got, batch)
			}
		}
	}
	e.stop()
	eventually(t, "the late helpers to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestExecutorInlineOnOneProcessor: at GOMAXPROCS=1 the executor has a
// single lane — no goroutine is spawned and run is the inline loop.
func TestExecutorInlineOnOneProcessor(t *testing.T) {
	withProcs(t, 1)
	before := runtime.NumGoroutine()
	e := newShardExecutor(4)
	defer e.stop()
	if len(e.helpers) != 0 || runtime.NumGoroutine() > before {
		t.Fatalf("GOMAXPROCS=1: %d helpers, %d goroutines (was %d), want none spawned",
			len(e.helpers), runtime.NumGoroutine(), before)
	}
	var order []int
	me := goid()
	e.run(func(shard int) {
		if goid() != me {
			t.Errorf("shard %d left the calling goroutine", shard)
		}
		order = append(order, shard)
	})
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("inline run visited shards %v, want 0..3 in order", order)
	}
}

// TestExecutorParkAndWake: a helper left without work spends its spin
// budget and parks; the next run wakes it and still completes every
// shard, and a helper caught spinning is released just the same.
func TestExecutorParkAndWake(t *testing.T) {
	withProcs(t, 2)
	e := newShardExecutor(2)
	defer e.stop()
	var ran [2]int
	count := func(shard int) { ran[shard]++ }
	for round := 1; round <= 3; round++ {
		eventually(t, "the idle helper to park", e.helpers[0].parked.Load)
		e.run(count) // wakes the parked helper
		e.run(count) // finds it spinning
		if ran != [2]int{2 * round, 2 * round} {
			t.Fatalf("round %d: shard run counts %v, want %d each", round, ran, 2*round)
		}
	}
}

// TestExecutorStopReleasesHelpers: stop ends helpers whether they are
// still spinning or already parked, and the goroutine count returns to
// its pre-executor value.
func TestExecutorStopReleasesHelpers(t *testing.T) {
	withProcs(t, 2)
	before := runtime.NumGoroutine()
	reaped := func() bool { return runtime.NumGoroutine() <= before }

	e := newShardExecutor(2)
	e.run(func(int) {})
	e.stop() // the helper has just run: it is polling, not parked
	eventually(t, "a spinning helper to exit", reaped)

	e = newShardExecutor(2)
	eventually(t, "the idle helper to park", e.helpers[0].parked.Load)
	e.stop()
	eventually(t, "a parked helper to exit", reaped)
}

// TestWorkersFinalizerReapsLanes: a parallel network dropped without
// Close does not leak its helpers — they reference the executor only,
// so the network is collected and its finalizer stops them.
func TestWorkersFinalizerReapsLanes(t *testing.T) {
	withProcs(t, 2)
	before := runtime.NumGoroutine()
	func() {
		cfg := smokeCfg(config.ViChaR)
		cfg.Workers = 2
		n := New(&cfg)
		for i := 0; i < 10; i++ {
			n.Step()
		}
		if len(n.exec.helpers) != 1 {
			t.Fatalf("parallel Step started %d helpers, want 1", len(n.exec.helpers))
		}
	}()
	eventually(t, "the finalizer to stop the helper", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}
