package network

import (
	"errors"
	"testing"

	"vichar/internal/config"
)

// txnWallConfig builds the protocol-deadlock wall workload: a
// saturating read-heavy memory-edge pattern on a 4x4 mesh with two
// virtual channels per port. Memory controllers sit on the left and
// right columns behind a shallow service queue, the eight interior
// tiles fire read requests at half a request per cycle against a deep
// outstanding window, and each requester is capped so the workload is
// drainable — a finished run retires every transaction. Eastbound
// read responses from the left controllers share channels with
// eastbound requests piling into the full right controllers (and
// mirrored westbound), so whether responses can always make forward
// progress is exactly the VC-assignment question. The per-cycle
// invariant auditor is on throughout, including the VC-class
// separation check.
func txnWallConfig(arch config.BufferArch, shared bool) config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = arch
	cfg.VCs, cfg.VCDepth = 2, 4
	cfg.BufferSlots = 8
	cfg.InjectionRate = 0
	cfg.Seed = 61
	cfg.Audit = true
	cfg.Txn = config.TxnConfig{
		Enabled:       true,
		Rate:          0.5,
		Window:        16,
		ReadFrac:      1,
		ServiceCycles: 4,
		QueueDepth:    2,
		MemEdge:       true,
		Requests:      30,
		SharedVCs:     shared,
	}
	return cfg
}

// TestTxnProtocolDeadlockWall is the protocol-deadlock regression
// wall. With request and response classes separated onto disjoint VC
// partitions, the saturating memory-edge workload must drain on every
// buffer architecture without the watchdog firing: responses always
// find forward progress, so the memory controllers' finite queues
// always eventually drain and every request retires. The negative
// control runs the identical workload with both message classes on
// one shared VC partition — read requests wedged at a full memory
// controller hold the very channel VCs its outbound read responses
// need, the classic request/response protocol deadlock — and must
// freeze: the watchdog fires one window after the last ejection, on a
// router that holds flits, and nothing retired after that ejection.
func TestTxnProtocolDeadlockWall(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := txnWallConfig(arch, false)
			n := New(&cfg)
			defer n.Close()
			for !n.Txn().Done() {
				n.Step()
				if err := n.CheckProgress(); err != nil {
					t.Fatalf("class-separated workload wedged (%d retired): %v", n.Txn().Retired(), err)
				}
			}
		})
	}
	t.Run("shared-vcs-wedge", func(t *testing.T) {
		cfg := txnWallConfig(config.Generic, true)
		n := New(&cfg)
		defer n.Close()
		var lastRetire, retired int64
		var err error
		for err == nil {
			if n.Txn().Done() {
				t.Fatalf("shared-VC negative control drained %d transactions; the deadlock wall lost its teeth",
					n.Txn().Retired())
			}
			n.Step()
			if r := n.Txn().Retired(); r != retired {
				lastRetire, retired = n.Now(), r
			}
			err = n.CheckProgress()
		}
		var w *WedgeError
		if !errors.As(err, &w) {
			t.Fatalf("verdict %v, want a *WedgeError", err)
		}
		if w.LastEject != 138 || w.Cycle != w.LastEject+w.Window+1 || w.Flits == 0 || lastRetire > w.LastEject {
			t.Fatalf("last ejection %d, wedge at %d (window %d), router %d holds %d flits, last retirement %d; want ejection 138, wedge one window later on a router holding flits, no retirement after the ejection",
				w.LastEject, w.Cycle, w.Window, w.Router, w.Flits, lastRetire)
		}
	})
}
