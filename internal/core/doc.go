// Package core implements the paper's contribution: the dynamic
// Virtual Channel Regulator (ViChaR), composed of the Unified Buffer
// Structure (UBS) and the Unified Control Logic (UCL).
//
// One ViChaR module regulates one router port. Physically the UBS is
// the same v*k flit slots a generic router has; the UCL makes them a
// single logical pool and dispenses a variable number of virtual
// channels over it — between v deep VCs under light traffic and v*k
// single-slot VCs under heavy traffic — with at most one packet per
// VC, so head-of-line blocking within a VC cannot occur.
//
// The five UCL sub-modules of paper Figure 6 map onto this package as
// follows:
//
//   - VC Control Table      → Table (table.go): per-VC ordered slot
//     ID lists; a NULLed row is a free VC.
//   - Slot Availability Tracker → Tracker (tracker.go): a bitmap with
//     a top-most-available pointer.
//   - VC Availability Tracker   → Tracker, one over all of a port's VC
//     IDs, held by the router's ViChaR credit view (internal/router).
//   - Token (VC) Dispenser  → that view's FreeVC and ClaimVC, the
//     contract every credit view answers: FCFS grant of the lowest
//     free VC ID in the requesting packet's span (Tracker FirstInRange
//     to peek, Take to claim), the escape span for deadlock recovery.
//   - Arriving/Departing Flit Pointers Logic → the Write/Front/Pop
//     paths of UBS (ubs.go), which steer flits to slots indicated by
//     the Slot Availability Tracker and read each VC's first non-NULL
//     entry.
//
// All sub-modules complete their work within a single simulated
// cycle, reflecting the paper's single-clock table-based design (vs.
// the DAMQ's 3-cycle linked lists).
//
// In the full router, the UBS sits at each input port while the
// token state is mirrored at the upstream router's output port —
// exactly the logical split of paper Figure 6, where the token
// dispenser and second-stage VC arbitration serve "all flits destined
// to a particular output port".
package core
