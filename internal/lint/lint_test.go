package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// expectation is one (file, line, rule) a fixture marks with //!lint.
type expectation struct {
	file string
	line int
	rule string
}

// readExpectations scans every fixture source for //!lint markers.
// A marker may name several rules: `//!lint rule1 rule2`.
func readExpectations(t *testing.T, root string) map[expectation]bool {
	t.Helper()
	want := map[expectation]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "//!lint ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(marker) {
				want[expectation{file: p, line: line, rule: rule}] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures runs the full engine over the fixture tree and
// demands an exact match between produced diagnostics and //!lint
// markers: every marker must fire (positive cases) and nothing else
// may (negative cases — unmarked lines, scope exclusions,
// annotation suppressions).
func TestFixtures(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "testdata", "src")
	want := readExpectations(t, root)
	if len(want) == 0 {
		t.Fatal("no //!lint markers found under testdata/src")
	}

	diags, err := Run(cwd, []string{"./testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	got := map[expectation]bool{}
	for _, d := range diags {
		got[expectation{file: d.Pos.Filename, line: d.Pos.Line, rule: d.Rule}] = true
	}
	for e := range want {
		if !got[e] {
			t.Errorf("missing diagnostic: %s:%d [%s]", e.file, e.line, e.rule)
		}
	}
	for e := range got {
		if !want[e] {
			t.Errorf("unexpected diagnostic: %s:%d [%s]", e.file, e.line, e.rule)
		}
	}

	// Each rule must be exercised by at least one positive and one
	// negative case: a marker proves the positive; a fixture file
	// containing the rule's trigger pattern with no marker on every
	// line proves the negative (asserted by the exact-match check
	// above). Require presence of a positive per rule here.
	for _, rule := range []string{RuleMapRange, RuleAmbientEntropy, RuleCheckedErrors, RulePanics, RuleConcurrency,
		RuleHotPathAlloc, RuleEscapeAudit} {
		found := false
		for e := range want {
			if e.rule == rule {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no fixture exercises rule %s", rule)
		}
	}
}

// TestScopeExclusions pins the scoping contract: deterministic-core
// rules stay quiet outside the deterministic package set.
func TestScopeExclusions(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"./testdata/src/stats"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("package stats should lint clean, got %s", d)
	}
}

// TestAnnotationRequiresReason verifies a bare //vichar:ordered (no
// justification) does not suppress.
func TestAnnotationRequiresReason(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"./testdata/src/router"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Rule == RuleMapRange && strings.Contains(d.Pos.Filename, "maprange.go") && d.Pos.Line == 40 {
			found = true
		}
	}
	if !found {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Errorf("bare annotation suppressed the diagnostic; got:\n%s", strings.Join(lines, "\n"))
	}
}

// TestRepositoryIsClean is the determinism and purity contracts' own
// regression test: it runs the pipeline `make lint` runs — the
// compiler's escape report over the hot set included — so tier-1 holds
// the whole static contract. The shipped tree must lint clean, and a
// reasoned waiver at the site is the only way a finding is accepted.
// Any new map range, ambient entropy source, dropped error,
// unannotated panic or unwaived tick-path allocation in the simulator
// core fails this test.
func TestRepositoryIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"vichar/..."}) // the whole module, as ./... from its root
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the site or annotate it (//vichar:ordered, //vichar:invariant, //vichar:alloc, //vichar:nolint) with a justification")
	}
}

// TestLoadErrors pins that a load failure is an error naming what
// failed, never a clean run: the go tool only warns about a pattern
// that matches nothing, so the loader checks every pattern itself.
func TestLoadErrors(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, pattern, want string }{
		{"missing directory", "./nope", "./nope"},
		{"no package matched", "vichar/nope/...", "vichar/nope/..."},
		{"type error", "./testdata/broken", "vichar/internal/lint/testdata/broken"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags, err := Run(cwd, []string{tc.pattern})
			if err == nil {
				t.Fatalf("Run(%s) = %d diagnostics and no error", tc.pattern, len(diags))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestDiagnosticString pins the CLI output format other tooling
// (editors, CI annotations) parses.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: RuleMapRange, Msg: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got, want := d.String(), "f.go:3:7: [map-range] m"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}
