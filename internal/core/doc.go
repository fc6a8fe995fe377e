// Package core implements the control half of the paper's
// contribution, the dynamic Virtual Channel Regulator (ViChaR): the
// Token (VC) Dispenser and its VC Availability Tracker. One ViChaR
// module regulates one router port, whose v*k buffer slots form one
// logical pool; the dispenser hands out a variable number of virtual
// channels over it — between v deep VCs under light traffic and v*k
// single-slot VCs under heavy traffic — with at most one packet per
// VC, so head-of-line blocking within a VC cannot occur.
//
// The Unified Control Logic sub-modules of paper Figure 6 map onto the
// simulator as follows:
//
//   - VC Availability Tracker → Tracker, one over all of a port's VC
//     IDs, held by the router's ViChaR credit view (internal/router).
//   - Token (VC) Dispenser → that view's FreeVC and ClaimVC: FCFS grant
//     of the lowest free VC ID in the requesting packet's span (Tracker
//     FirstInRange to peek, Take to claim), the escape span for
//     deadlock recovery.
//   - VC Control Table, Slot Availability Tracker and the flit pointer
//     logic → the slot pool of buffers.Queues (buffers.NewViChaR):
//     per-queue chains through one link per slot, and a free chain.
//     Slot identity is never observable, so every organization shares
//     that one storage; internal/synth prices the table hardware.
//
// All complete their work within one simulated cycle, the paper's
// single-clock table-based design (vs. the DAMQ's 3-cycle lists). The
// buffer sits at each input port while the token state is mirrored at
// the upstream router's output port — the logical split of Figure 6,
// where the dispenser and second-stage VC arbitration serve "all flits
// destined to a particular output port".
package core
