package config

import (
	"fmt"
	"strconv"
	"strings"

	"vichar/internal/topology"
)

// FaultKind classifies one scheduled fault event.
type FaultKind int

const (
	// KillLink permanently disables the directed link leaving Node
	// through Port from Cycle on. Worms already granted the link drain
	// normally; the VC allocator stops routing new packets over it and
	// escape traffic is carried by a fault-aware up*/down* escape tree
	// built over the surviving links (routing.EscapeTree). Requires
	// MinimalAdaptive routing, and the surviving bidirectional links
	// must keep the mesh connected.
	KillLink FaultKind = iota
	// StallPort freezes the control logic of input port Port at router
	// Node for Cycles cycles starting at Cycle: no RC, VA or SA
	// progress for that port, while arriving flits still land in its
	// buffer. Credit backpressure propagates the stall upstream.
	StallPort
	// DropFlit drops exactly one flit: the first delivery attempt on
	// the link leaving Node through Port at or after Cycle is faulted
	// and recovered through the link's retransmission buffer.
	DropFlit
)

// String returns the canonical event-kind name.
func (k FaultKind) String() string {
	switch k {
	case KillLink:
		return "kill-link"
	case StallPort:
		return "stall-port"
	case DropFlit:
		return "drop-flit"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ParseFaultKind parses a fault-event kind name.
func ParseFaultKind(s string) (FaultKind, error) {
	switch normalize(s) {
	case "kill-link", "killlink", "kill":
		return KillLink, nil
	case "stall-port", "stallport", "stall", "freeze":
		return StallPort, nil
	case "drop-flit", "dropflit", "drop":
		return DropFlit, nil
	default:
		return 0, fmt.Errorf("config: unknown fault kind %q (kill-link|stall-port|drop-flit)", s)
	}
}

// MarshalText returns the canonical event-kind name.
func (k FaultKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a fault-event kind name.
func (k *FaultKind) UnmarshalText(b []byte) error {
	v, err := ParseFaultKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// FaultEvent is one explicitly scheduled fault. For KillLink and
// DropFlit, Port is the output port of the faulted link at Node
// (cardinal only); for StallPort it is the frozen input port (Local
// allowed — that freezes injection drainage).
type FaultEvent struct {
	// Cycle is the simulation cycle the event takes effect (the first
	// cycle is 1).
	Cycle int64
	Kind  FaultKind
	Node  int
	Port  int
	// Cycles is the stall duration (StallPort only).
	Cycles int `json:",omitempty"`
}

// FaultsConfig schedules the deterministic fault model of a run
// (internal/faults). The zero value disables it. Rate-driven faults
// are drawn from pure counter-based hashes keyed by Seed and the
// faulted resource — never from shared random state — so fault
// placement is bit-identical at every Config.Workers setting.
type FaultsConfig struct {
	// Seed keys the fault hash streams; independent of Config.Seed so
	// traffic and fault placement can be varied separately.
	Seed int64 `json:",omitempty"`

	// DropRate and CorruptRate are per-delivery-attempt probabilities
	// of a flit being lost on, or corrupted while crossing, an
	// inter-router link. Both are detected at the receiver (implicit
	// per-flit CRC) and recovered by the link's retransmission buffer:
	// the faulted flit is held for the retransmit delay and re-sent,
	// blocking the flits behind it so wormhole order is preserved.
	DropRate    float64 `json:",omitempty"`
	CorruptRate float64 `json:",omitempty"`
	// RetransmitDelay is the cycles between a detected fault and the
	// retransmission attempt (0 = default 4). A retransmission is
	// itself subject to the fault rates.
	RetransmitDelay int `json:",omitempty"`

	// StallRate is the per-cycle probability that a healthy router
	// input port freezes for StallCycles cycles (0 = default 8).
	StallRate   float64 `json:",omitempty"`
	StallCycles int     `json:",omitempty"`

	// Events is the explicit fault schedule; see FaultEvent.
	Events []FaultEvent `json:",omitempty"`
}

// Enabled reports whether the configuration injects any faults.
func (f *FaultsConfig) Enabled() bool {
	return f.DropRate > 0 || f.CorruptRate > 0 || f.StallRate > 0 || len(f.Events) > 0
}

// EffectiveRetransmitDelay returns RetransmitDelay with the default
// applied.
func (f *FaultsConfig) EffectiveRetransmitDelay() int {
	if f.RetransmitDelay > 0 {
		return f.RetransmitDelay
	}
	return 4
}

// EffectiveStallCycles returns StallCycles with the default applied.
func (f *FaultsConfig) EffectiveStallCycles() int {
	if f.StallCycles > 0 {
		return f.StallCycles
	}
	return 8
}

// HasHardFaults reports whether the schedule contains a KillLink
// event (which switches escape routing to the fault-aware tree).
func (f *FaultsConfig) HasHardFaults() bool {
	for _, ev := range f.Events {
		if ev.Kind == KillLink {
			return true
		}
	}
	return false
}

// validate checks the fault schedule against the enclosing
// configuration; called from Config.Validate.
func (f *FaultsConfig) validate(c *Config) error {
	switch {
	case f.DropRate < 0 || f.DropRate > 1:
		return fmt.Errorf("config: fault drop rate must be in [0,1], got %g", f.DropRate)
	case f.CorruptRate < 0 || f.CorruptRate > 1:
		return fmt.Errorf("config: fault corrupt rate must be in [0,1], got %g", f.CorruptRate)
	case f.DropRate+f.CorruptRate > 1:
		return fmt.Errorf("config: fault drop+corrupt rates exceed 1 (%g)", f.DropRate+f.CorruptRate)
	case f.StallRate < 0 || f.StallRate > 1:
		return fmt.Errorf("config: port stall rate must be in [0,1], got %g", f.StallRate)
	case f.RetransmitDelay < 0:
		return fmt.Errorf("config: retransmit delay cannot be negative, got %d", f.RetransmitDelay)
	case f.StallCycles < 0:
		return fmt.Errorf("config: stall cycles cannot be negative, got %d", f.StallCycles)
	}
	mesh := topology.Mesh{Width: c.Width, Height: c.Height, Torus: c.Torus}
	for i, ev := range f.Events {
		if ev.Cycle < 1 {
			return fmt.Errorf("config: fault event %d: cycle must be >= 1, got %d", i, ev.Cycle)
		}
		if ev.Node < 0 || ev.Node >= c.Nodes() {
			return fmt.Errorf("config: fault event %d: node %d outside %dx%d mesh", i, ev.Node, c.Width, c.Height)
		}
		switch ev.Kind {
		case StallPort:
			if ev.Port < 0 || ev.Port >= c.Ports() {
				return fmt.Errorf("config: fault event %d: input port %d out of range", i, ev.Port)
			}
			if ev.Cycles < 1 {
				return fmt.Errorf("config: fault event %d: stall duration must be positive, got %d", i, ev.Cycles)
			}
		case KillLink, DropFlit:
			if ev.Port < 0 || ev.Port >= topology.Local {
				return fmt.Errorf("config: fault event %d: %v needs a cardinal output port, got %d", i, ev.Kind, ev.Port)
			}
			if _, ok := mesh.Neighbor(ev.Node, ev.Port); !ok {
				return fmt.Errorf("config: fault event %d: node %d has no link through port %s", i, ev.Node, topology.PortName(ev.Port))
			}
		default:
			return fmt.Errorf("config: fault event %d: unknown kind %v", i, ev.Kind)
		}
	}
	if f.HasHardFaults() {
		if c.Routing != MinimalAdaptive {
			return fmt.Errorf("config: kill-link faults require adaptive routing to route around the dead link")
		}
		if err := f.checkConnected(mesh); err != nil {
			return err
		}
	}
	return nil
}

// checkConnected verifies that the bidirectionally healthy links —
// after every scheduled KillLink has taken effect — still connect the
// mesh; the escape tree needs a spanning tree of such links.
func (f *FaultsConfig) checkConnected(mesh topology.Mesh) error {
	dead := make([]bool, mesh.Nodes()*topology.Local)
	for _, ev := range f.Events {
		if ev.Kind == KillLink {
			dead[ev.Node*topology.Local+ev.Port] = true
		}
	}
	seen := make([]bool, mesh.Nodes())
	queue := make([]int, 1, mesh.Nodes()) // node 0 first; each node enters once
	seen[0] = true
	reached := 1
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for port := 0; port < topology.Local; port++ {
			nb, ok := mesh.Neighbor(cur, port)
			if !ok || seen[nb] {
				continue
			}
			if dead[cur*topology.Local+port] || dead[nb*topology.Local+topology.Opposite(port)] {
				continue
			}
			seen[nb] = true
			reached++
			queue = append(queue, nb)
		}
	}
	if reached != mesh.Nodes() {
		return fmt.Errorf("config: kill-link faults disconnect the mesh (%d of %d nodes reachable over surviving links)", reached, mesh.Nodes())
	}
	return nil
}

// ParseFaults parses the compact fault-schedule syntax of the
// vichar-sim -faults flag: comma-separated clauses
//
//	seed=<n>            fault seed
//	drop=<rate>         transient flit-drop probability per link hop
//	corrupt=<rate>      transient flit-corruption probability
//	retx=<cycles>       retransmission delay
//	stall=<rate>[:<n>]  per-cycle port-stall probability (duration n)
//	kill=<node>.<port>@<cycle>        hard link failure
//	freeze=<node>.<port>@<cycle>+<n>  targeted port stall for n cycles
//	drop1=<node>.<port>@<cycle>       targeted one-shot flit drop
//
// where <port> is n|e|s|w|l or a port index. An empty string, "off"
// or "none" yields a disabled schedule.
func ParseFaults(s string) (FaultsConfig, error) {
	var f FaultsConfig
	switch normalize(s) {
	case "", "off", "none":
		return f, nil
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return FaultsConfig{}, fmt.Errorf("config: fault clause %q is not key=value", clause)
		}
		var err error
		switch normalize(key) {
		case "seed":
			f.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			f.DropRate, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			f.CorruptRate, err = strconv.ParseFloat(val, 64)
		case "retx":
			f.RetransmitDelay, err = strconv.Atoi(val)
		case "stall":
			rate, cycles, has := strings.Cut(val, ":")
			f.StallRate, err = strconv.ParseFloat(rate, 64)
			if err == nil && has {
				f.StallCycles, err = strconv.Atoi(cycles)
			}
		case "kill", "freeze", "drop1":
			var ev FaultEvent
			ev, err = parseFaultEvent(normalize(key), val)
			if err == nil {
				f.Events = append(f.Events, ev)
			}
		default:
			return FaultsConfig{}, fmt.Errorf("config: unknown fault clause %q", key)
		}
		if err != nil {
			return FaultsConfig{}, fmt.Errorf("config: fault clause %q: %v", clause, err)
		}
	}
	return f, nil
}

// parseFaultEvent parses "<node>.<port>@<cycle>" with an optional
// "+<cycles>" stall duration.
func parseFaultEvent(key, val string) (FaultEvent, error) {
	ev := FaultEvent{}
	switch key {
	case "kill":
		ev.Kind = KillLink
	case "freeze":
		ev.Kind = StallPort
	case "drop1":
		ev.Kind = DropFlit
	}
	loc, when, ok := strings.Cut(val, "@")
	if !ok {
		return FaultEvent{}, fmt.Errorf("missing @<cycle>")
	}
	nodeStr, portStr, ok := strings.Cut(loc, ".")
	if !ok {
		return FaultEvent{}, fmt.Errorf("location %q is not <node>.<port>", loc)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return FaultEvent{}, fmt.Errorf("bad node: %v", err)
	}
	ev.Node = node
	if ev.Port, err = parsePort(portStr); err != nil {
		return FaultEvent{}, err
	}
	cycleStr, durStr, hasDur := strings.Cut(when, "+")
	if ev.Cycle, err = strconv.ParseInt(cycleStr, 10, 64); err != nil {
		return FaultEvent{}, fmt.Errorf("bad cycle: %v", err)
	}
	if ev.Kind == StallPort {
		if !hasDur {
			return FaultEvent{}, fmt.Errorf("freeze needs a +<cycles> duration")
		}
		if ev.Cycles, err = strconv.Atoi(durStr); err != nil {
			return FaultEvent{}, fmt.Errorf("bad duration: %v", err)
		}
	} else if hasDur {
		return FaultEvent{}, fmt.Errorf("+<cycles> only applies to freeze")
	}
	return ev, nil
}

// parsePort parses a port as a cardinal letter or an index.
func parsePort(s string) (int, error) {
	switch normalize(s) {
	case "n":
		return topology.North, nil
	case "e":
		return topology.East, nil
	case "s":
		return topology.South, nil
	case "w":
		return topology.West, nil
	case "l":
		return topology.Local, nil
	}
	p, err := strconv.Atoi(s)
	if err != nil || p < 0 || p >= topology.NumPorts {
		return 0, fmt.Errorf("bad port %q (n|e|s|w|l or 0..%d)", s, topology.NumPorts-1)
	}
	return p, nil
}
