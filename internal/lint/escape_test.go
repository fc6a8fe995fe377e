package lint

import (
	"strconv"
	"strings"
	"testing"
)

// TestParseEscapeOutput pins the compiler-output contract: heap
// decisions are extracted with paths made absolute, "does not escape"
// lines are skipped, and -m -m's restatements of one decision — with a
// trailing colon before the flow explanation, and per inlined copy —
// collapse to one entry.
func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# vichar/internal/network",
		"./internal/network/network.go:10:6: f escapes to heap:",
		"./internal/network/network.go:10:6:   flow: {heap} = &f:",
		"./internal/network/network.go:10:6: f escapes to heap",
		"./internal/network/network.go:10:6: f escapes to heap", // restated
		"./internal/network/network.go:12:9: x does not escape",
		"internal/network/network.go:14:2: moved to heap: y",
		"not a diagnostic line",
	}, "\n")
	lines := parseEscapeOutput("/mod", out)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %+v", len(lines), lines)
	}
	if lines[0].file != "/mod/internal/network/network.go" || lines[0].line != 10 || lines[0].msg != "f escapes to heap" {
		t.Errorf("line 0 = %+v", lines[0])
	}
	if lines[1].line != 14 || !strings.Contains(lines[1].msg, "moved to heap") {
		t.Errorf("line 1 = %+v", lines[1])
	}
}

// TestAuditEscapes covers the matching rules: an escape in a hot
// extent is a finding unless a waived statement or a panic call covers
// exactly its line; cold gaps, constant-string boxing and a literal's
// own escape at its start line are not findings.
func TestAuditEscapes(t *testing.T) {
	hot := &hotSet{
		funcs: map[string][]hotFunc{"/m/a.go": {
			{name: "Network.Step", root: "Network.Step", start: 10, end: 30},
			{name: "New.func", root: "Network.Step", start: 50, end: 55, lit: true},
		}},
		waived: map[string]map[int]bool{},
	}
	hot.waive("/m/a.go", 20, 22) // one waived three-line statement
	lines := []escapeLine{
		{file: "/m/a.go", line: 15, msg: "make([]int, n) escapes to heap"}, // finding
		{file: "/m/a.go", line: 19, msg: "u escapes to heap"},              // line before the waived statement
		{file: "/m/a.go", line: 20, msg: "x escapes to heap"},              // waived, first line
		{file: "/m/a.go", line: 22, msg: "moved to heap: w"},               // waived, last line
		{file: "/m/a.go", line: 23, msg: "new(T) escapes to heap"},         // adjacent allocation: no slack
		{file: "/m/a.go", line: 40, msg: "y escapes to heap"},              // cold gap
		{file: "/m/a.go", line: 12, msg: `"boom" escapes to heap`},         // constant boxing
		{file: "/m/a.go", line: 50, msg: "func literal escapes to heap"},   // the literal itself, cold encloser
		{file: "/m/a.go", line: 52, msg: "moved to heap: v"},               // finding
		{file: "/m/b.go", line: 15, msg: "z escapes to heap"},              // file without hot functions
	}
	var got []string
	for _, d := range auditEscapes(hot, lines) {
		got = append(got, d.Pos.Filename[len("/m/"):]+":"+strconv.Itoa(d.Pos.Line))
		if d.Rule != RuleEscapeAudit {
			t.Errorf("rule = %s, want %s", d.Rule, RuleEscapeAudit)
		}
	}
	want := []string{"a.go:15", "a.go:19", "a.go:23", "a.go:52"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("findings = %v, want %v", got, want)
	}
}
