package audit_test

import (
	"strings"
	"testing"

	"vichar/internal/audit"
)

// TestCheckLink pins the conservation equation on both sides.
func TestCheckLink(t *testing.T) {
	ok := audit.LinkState{Name: "0->1", Outstanding: 5, InFlightFlits: 2, DownstreamOccupied: 2, InFlightCredits: 1}
	if err := audit.CheckLink(ok); err != nil {
		t.Fatalf("balanced link: %v", err)
	}
	bad := ok
	bad.InFlightCredits = 0
	err := audit.CheckLink(bad)
	if err == nil || !strings.Contains(err.Error(), "credit conservation") {
		t.Fatalf("want conservation violation, got %v", err)
	}
}
