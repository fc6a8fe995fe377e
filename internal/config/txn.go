package config

import (
	"fmt"
	"strconv"
	"strings"
)

// TxnConfig enables the network-interface (NIU) transaction layer
// (internal/txn): request/response protocol traffic generated against
// per-node outstanding-request windows, served by finite memory-
// controller queues, with message classes mapped onto disjoint
// virtual-channel classes so response traffic can never be blocked
// behind request traffic (protocol-deadlock freedom by construction).
// The zero value disables the layer.
type TxnConfig struct {
	// Enabled turns the transaction layer on. Every other field is
	// ignored while it is false.
	Enabled bool `json:",omitempty"`

	// Rate is the per-requester-node request generation probability
	// per cycle (Bernoulli, like InjectionRate but in requests rather
	// than flits).
	Rate float64 `json:",omitempty"`

	// Window caps the outstanding (issued but not yet retired)
	// requests per node; a node at its window stops generating until a
	// retirement frees a slot (0 = default 8).
	Window int `json:",omitempty"`

	// ReadFrac, WriteFrac and AtomicFrac weight the request mix; they
	// are normalized, so 8/1/1 and 0.8/0.1/0.1 are the same mix. All
	// zero means a pure read workload.
	ReadFrac   float64 `json:",omitempty"`
	WriteFrac  float64 `json:",omitempty"`
	AtomicFrac float64 `json:",omitempty"`
	// PostedFrac is the fraction of writes issued as posted writes,
	// which retire at the target without a write-ack response.
	PostedFrac float64 `json:",omitempty"`

	// ServiceCycles is the memory-controller service latency between a
	// request's tail ejection and its response becoming ready
	// (0 = default 8).
	ServiceCycles int `json:",omitempty"`
	// QueueDepth bounds each responder's service queue, counting
	// requests granted ejection, requests in service and responses not
	// yet fully injected back into the network. A full queue refuses
	// ejection-VC grants to further request-class packets — the finite
	// NIU buffer that makes protocol deadlock reachable at all
	// (0 = default 4).
	QueueDepth int `json:",omitempty"`

	// MemEdge places the memory controllers on the left and right mesh
	// columns (DRAM-edge tiles); all requests target an edge tile and
	// only the interior tiles generate them. When false every node is
	// both requester and responder with uniform targets.
	MemEdge bool `json:",omitempty"`

	// Requests, when positive, caps the requests each requester node
	// generates — a drainable workload for deadlock regression tests.
	Requests int `json:",omitempty"`

	// SharedVCs disables the request/response VC-class separation,
	// putting both message classes on one shared VC partition: the
	// classic protocol-deadlock-prone assignment the regression wall
	// runs as its negative control.
	SharedVCs bool `json:",omitempty"`

	// Seed keys the transaction layer's per-node random streams
	// independently of Config.Seed (0 = derive from Config.Seed).
	Seed int64 `json:",omitempty"`
}

// EffectiveWindow returns Window with the default applied.
func (t *TxnConfig) EffectiveWindow() int {
	if t.Window > 0 {
		return t.Window
	}
	return 8
}

// EffectiveServiceCycles returns ServiceCycles with the default
// applied.
func (t *TxnConfig) EffectiveServiceCycles() int {
	if t.ServiceCycles > 0 {
		return t.ServiceCycles
	}
	return 8
}

// EffectiveQueueDepth returns QueueDepth with the default applied.
func (t *TxnConfig) EffectiveQueueDepth() int {
	if t.QueueDepth > 0 {
		return t.QueueDepth
	}
	return 4
}

// EffectiveSeed returns the transaction stream seed, falling back to
// the run seed.
func (t *TxnConfig) EffectiveSeed(runSeed int64) int64 {
	if t.Seed != 0 {
		return t.Seed
	}
	return runSeed
}

// EffectiveMix returns the normalized read/write/atomic request mix;
// an all-zero mix is a pure read workload.
func (t *TxnConfig) EffectiveMix() (read, write, atomic float64) {
	sum := t.ReadFrac + t.WriteFrac + t.AtomicFrac
	if sum <= 0 {
		return 1, 0, 0
	}
	return t.ReadFrac / sum, t.WriteFrac / sum, t.AtomicFrac / sum
}

// VCClasses returns the number of virtual-channel classes every port
// is partitioned into: 2 (requests = class 0, responses = class 1)
// when the transaction layer runs with class separation, 1 otherwise.
func (c *Config) VCClasses() int {
	if c.Txn.Enabled && !c.Txn.SharedVCs {
		return 2
	}
	return 1
}

// VCKinds returns the number of (class, escape) VC kinds every port's
// VC range is split into: one per class, and one more per class when
// the routing relation needs escape VCs. A ViChaR port with more than
// one kind carves one grant-reserve slot per kind out of its pool.
func (c *Config) VCKinds() int {
	if c.NeedsEscape() {
		return 2 * c.VCClasses()
	}
	return c.VCClasses()
}

// validate checks the transaction configuration against the enclosing
// configuration; called from Config.Validate.
func (t *TxnConfig) validate(c *Config) error {
	if !t.Enabled {
		return nil
	}
	switch {
	case t.Rate <= 0 || t.Rate > 1:
		return fmt.Errorf("config: transaction rate must be in (0,1] requests/node/cycle, got %g", t.Rate)
	case t.Window < 0:
		return fmt.Errorf("config: transaction window cannot be negative, got %d", t.Window)
	case t.ReadFrac < 0 || t.WriteFrac < 0 || t.AtomicFrac < 0:
		return fmt.Errorf("config: transaction mix weights cannot be negative, got %g/%g/%g", t.ReadFrac, t.WriteFrac, t.AtomicFrac)
	case t.PostedFrac < 0 || t.PostedFrac > 1:
		return fmt.Errorf("config: posted-write fraction must be in [0,1], got %g", t.PostedFrac)
	case t.ServiceCycles < 0:
		return fmt.Errorf("config: service latency cannot be negative, got %d", t.ServiceCycles)
	case t.QueueDepth < 0:
		return fmt.Errorf("config: service queue depth cannot be negative, got %d", t.QueueDepth)
	case t.Requests < 0:
		return fmt.Errorf("config: per-node request cap cannot be negative, got %d", t.Requests)
	}
	if t.MemEdge && c.Width < 3 {
		return fmt.Errorf("config: memory-edge transactions need interior requester columns, got width %d (want >= 3)", c.Width)
	}
	if classes := c.VCClasses(); classes > 1 {
		esc := 0
		if c.NeedsEscape() {
			if c.EscapeVCs < classes {
				return fmt.Errorf("config: class-separated transactions on an escape-routed topology need one escape VC per class, got %d (want >= %d)", c.EscapeVCs, classes)
			}
			esc = c.EscapeVCs
		}
		if regular := c.MaxVCs() - esc; regular < classes {
			return fmt.Errorf("config: class-separated transactions need one regular VC per class, got %d of %d VCs after %d escape (want >= %d)", regular, c.MaxVCs(), esc, classes)
		}
	}
	return nil
}

// ParseTxn parses the compact transaction-workload syntax of the
// vichar-sim -txn flag: comma-separated clauses
//
//	rate=<r>        request generation probability per node per cycle
//	window=<n>      outstanding-request window per node
//	mix=<r>/<w>/<a> read/write/atomic request mix weights
//	posted=<f>      fraction of writes issued as posted writes
//	service=<n>     memory-controller service latency in cycles
//	queue=<n>       memory-controller service queue depth
//	edge=<bool>     place memory controllers on the mesh edge columns
//	reqs=<n>        per-node request cap (drainable workloads)
//	shared=<bool>   share one VC class (deadlock-prone baseline)
//	seed=<n>        transaction stream seed
//
// Any clause enables the layer. An empty string, "off" or "none"
// yields a disabled configuration.
func ParseTxn(s string) (TxnConfig, error) {
	var t TxnConfig
	switch normalize(s) {
	case "", "off", "none":
		return t, nil
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return TxnConfig{}, fmt.Errorf("config: transaction clause %q is not key=value", clause)
		}
		var err error
		switch normalize(key) {
		case "rate":
			t.Rate, err = strconv.ParseFloat(val, 64)
		case "window":
			t.Window, err = strconv.Atoi(val)
		case "mix":
			err = parseMix(val, &t)
		case "posted":
			t.PostedFrac, err = strconv.ParseFloat(val, 64)
		case "service":
			t.ServiceCycles, err = strconv.Atoi(val)
		case "queue":
			t.QueueDepth, err = strconv.Atoi(val)
		case "edge":
			t.MemEdge, err = strconv.ParseBool(val)
		case "reqs":
			t.Requests, err = strconv.Atoi(val)
		case "shared":
			t.SharedVCs, err = strconv.ParseBool(val)
		case "seed":
			t.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return TxnConfig{}, fmt.Errorf("config: unknown transaction clause %q", key)
		}
		if err != nil {
			return TxnConfig{}, fmt.Errorf("config: transaction clause %q: %v", clause, err)
		}
	}
	t.Enabled = true
	return t, nil
}

// parseMix parses "<read>/<write>/<atomic>" weight triples.
func parseMix(val string, t *TxnConfig) error {
	parts := strings.Split(val, "/")
	if len(parts) != 3 {
		return fmt.Errorf("mix %q is not <read>/<write>/<atomic>", val)
	}
	dst := []*float64{&t.ReadFrac, &t.WriteFrac, &t.AtomicFrac}
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("bad mix weight %q: %v", p, err)
		}
		*dst[i] = w
	}
	return nil
}
