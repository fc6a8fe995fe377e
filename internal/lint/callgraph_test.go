package lint

import (
	"os"
	"testing"
)

// buildFixtureGraph loads the hotnet fixture and builds its call
// graph.
func buildFixtureGraph(t *testing.T) *callGraph {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := load(cwd, []string{"./testdata/src/hotnet"})
	if err != nil {
		t.Fatal(err)
	}
	return buildCallGraph(l)
}

// nodeByName finds the unique graph node with the display name.
func nodeByName(t *testing.T, g *callGraph, name string) *cgNode {
	t.Helper()
	var found *cgNode
	for _, n := range g.nodes {
		if n.name == name {
			if found != nil {
				t.Fatalf("ambiguous node name %q", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %q", name)
	}
	return found
}

// calleeNames returns the display names of a node's direct callees.
func calleeNames(n *cgNode) map[string]bool {
	out := map[string]bool{}
	for _, c := range n.callees {
		out[c.name] = true
	}
	return out
}

// TestCallGraphEdges pins one example of every edge kind the builder
// claims to resolve (see the package comment of callgraph.go).
func TestCallGraphEdges(t *testing.T) {
	g := buildFixtureGraph(t)
	if n := nodeByName(t, g, "Network.Step"); n.root != n.name {
		t.Fatal("Network.Step not marked as a tick root in fixture")
	}
	step := calleeNames(nodeByName(t, g, "Network.Step"))
	for name, kind := range map[string]string{
		"Network.dispatch":     "direct call",
		"Network.describe":     "direct call",
		"Network.bump":         "method value passed to apply",
		"Network.deliverShard": "func-typed field value fan-out",
	} {
		if !step[name] {
			t.Errorf("Step is missing %s edge to %s (has %v)", kind, name, step)
		}
	}
	dispatch := calleeNames(nodeByName(t, g, "Network.dispatch"))
	if !dispatch["ring.push"] {
		t.Errorf("dispatch is missing interface-dispatch edge to ring.push (has %v)", dispatch)
	}
	compute := calleeNames(nodeByName(t, g, "Network.compute"))
	if !compute["Network.compute.func"] {
		t.Errorf("compute is missing encloser edge to its literal (has %v)", compute)
	}
}

// TestCallGraphHotSet checks BFS reachability: everything on the tick
// path is hot with the right witness root, construction-time and dead
// code are not.
func TestCallGraphHotSet(t *testing.T) {
	g := buildFixtureGraph(t)
	for _, name := range []string{
		"Network.Step", "Network.dispatch", "Network.describe",
		"Network.label", "Network.compute", "Network.observe",
		"Network.bump", "Network.deliverShard", "Network.runSharded",
		"ring.push", "apply",
	} {
		n := nodeByName(t, g, name)
		if !n.hot {
			t.Errorf("%s should be hot", name)
		} else if n.root != "Network.Step" {
			t.Errorf("%s has witness root %q, want Network.Step", name, n.root)
		}
	}
	for _, name := range []string{"NewNet", "Network.auditPass", "Network.reset", "ring.clear"} {
		if nodeByName(t, g, name).hot {
			t.Errorf("%s should not be hot", name)
		}
	}
}
