package core

import (
	"fmt"

	"vichar/internal/soa"
)

// Dispenser is the Token (VC) Dispenser: virtual channels are tokens,
// "granted to new packets and then returned to the dispenser upon
// release" (paper §3.2.2). Grants are first-come-first-served — the
// dispenser never prioritizes flits of existing VCs — which is what
// lets ViChaR self-throttle: heavy traffic wins more grants and gets
// many shallow VCs; light traffic requests few grants and the
// resident VCs enjoy the full buffer depth.
//
// When adaptive routing can deadlock, a configurable number of tokens
// are designated escape (drain) channels; they are granted only to
// packets that have been re-channelled onto the deterministic escape
// path after exceeding the deadlock threshold. The highest-numbered
// VC IDs are the escape set.
//
// In the full router one Dispenser instance lives at each output
// port, mirroring the VC availability of the downstream input port —
// the placement of paper Figure 6.
type Dispenser struct {
	normal Tracker
	escape Tracker
	// hasEscape records whether an escape set was configured; the
	// trackers are embedded by value so both availability bitmaps sit
	// next to the dispenser's own fields.
	hasEscape bool
	// escBase is the first escape VC ID.
	escBase int
}

// NewDispenser returns a dispenser over vcs tokens of which escapeVCs
// (the highest-numbered IDs) are reserved for deadlock recovery.
// escapeVCs may be zero when the routing function is inherently
// deadlock-free.
func NewDispenser(vcs, escapeVCs int) *Dispenser {
	return NewDispenserIn(nil, vcs, escapeVCs)
}

// NewDispenserIn is NewDispenser drawing the availability bitmaps from
// the arena (nil-arena safe).
func NewDispenserIn(a *soa.Arena, vcs, escapeVCs int) *Dispenser {
	if vcs < 1 {
		panic(fmt.Sprintf("core: dispenser needs at least one token, got %d", vcs))
	}
	if escapeVCs < 0 || escapeVCs >= vcs {
		panic(fmt.Sprintf("core: escape VCs (%d) must leave at least one regular token of %d", escapeVCs, vcs))
	}
	d := &Dispenser{escBase: vcs - escapeVCs}
	d.normal.init(vcs-escapeVCs, a)
	if escapeVCs > 0 {
		d.hasEscape = true
		d.escape.init(escapeVCs, a)
	}
	return d
}

// Tokens returns the total number of VC tokens.
func (d *Dispenser) Tokens() int {
	n := d.normal.Size()
	if d.hasEscape {
		n += d.escape.Size()
	}
	return n
}

// FreeNormal returns the number of available regular tokens.
func (d *Dispenser) FreeNormal() int { return d.normal.Free() }

// FreeEscape returns the number of available escape tokens.
func (d *Dispenser) FreeEscape() int {
	if !d.hasEscape {
		return 0
	}
	return d.escape.Free()
}

// InUse returns the number of dispensed (outstanding) tokens; this is
// the "number of VCs dispensed" metric of paper Figures 13(e)/(f).
func (d *Dispenser) InUse() int { return d.Tokens() - d.FreeNormal() - d.FreeEscape() }

// GrantIn dispenses the lowest free token FCFS whose global VC ID
// falls in [lo, hi) of the chosen set: with escape, the escape set
// (deadlock recovery path of paper Figure 10's flow diagram), otherwise
// the regular set; the span is the VC class the packet belongs to. It
// returns ok=false when that span of the availability table is
// all-zero, in which case the dispenser "stops granting new VCs to
// requesting packets".
func (d *Dispenser) GrantIn(escape bool, lo, hi int) (vc int, ok bool) {
	if escape {
		if !d.hasEscape {
			return -1, false
		}
		i := d.escape.AcquireRange(lo-d.escBase, hi-d.escBase)
		if i < 0 {
			return -1, false
		}
		return d.escBase + i, true
	}
	i := d.normal.AcquireRange(lo, hi)
	if i < 0 {
		return -1, false
	}
	return i, true
}

// FreeIn returns the number of available tokens whose global VC IDs
// fall in [lo, hi) of the chosen set.
func (d *Dispenser) FreeIn(escape bool, lo, hi int) int {
	if escape {
		if !d.hasEscape {
			return 0
		}
		return d.escape.FreeInRange(lo-d.escBase, hi-d.escBase)
	}
	return d.normal.FreeInRange(lo, hi)
}

// Return releases a previously granted token (the packet's tail left
// the downstream buffer).
func (d *Dispenser) Return(vc int) {
	if vc < 0 || vc >= d.Tokens() {
		//vichar:invariant returning a token the dispenser never issued means VC id corruption upstream
		panic(fmt.Sprintf("core: return of token %d outside dispenser of %d", vc, d.Tokens()))
	}
	if vc >= d.escBase && d.hasEscape {
		d.escape.Release(vc - d.escBase)
		return
	}
	d.normal.Release(vc)
}
