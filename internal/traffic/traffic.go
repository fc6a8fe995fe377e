// Package traffic implements the paper's workload generators: the
// temporal injection processes (Uniform Random Bernoulli injection
// and Self-Similar Pareto ON/OFF bursts) and the spatial destination
// patterns (Normal Random and Tornado from the paper's evaluation,
// plus the standard Transpose, Bit-Complement and Hotspot patterns).
package traffic

import (
	"fmt"
	"math"

	"vichar/internal/config"
	"vichar/internal/rng"
	"vichar/internal/snap"
	"vichar/internal/topology"
)

// Generator produces packet creation events for every node. Each node
// owns an independent deterministic random stream so results are
// reproducible and insensitive to node iteration order. The streams
// sit by value in one slab and count their own generator steps, so a
// generator's position can be checkpointed as per-node (seed, draws)
// pairs and restored bit-exactly (State).
type Generator struct {
	cfg     *config.Config
	mesh    topology.Mesh
	pktProb float64 // per-cycle packet probability at the target rate
	rngs    []rng.Stream
	onoff   []onOffState // used when cfg.Traffic == SelfSimilar
	peak    float64      // ON-state injection rate, flits/cycle
	hot     int          // hotspot destination node
}

// onOffState is one Pareto ON/OFF source: ON periods inject at the
// peak rate, OFF periods are silent; both durations are Pareto
// distributed, whose heavy tail produces self-similar aggregate
// traffic.
type onOffState struct {
	on        bool
	remaining int64
}

// Shape parameters of the ON/OFF source. alphaOn=1.9 is the classic
// measured Ethernet value (finite mean, infinite variance);
// meanOn=40 cycles keeps bursts several packets long.
const (
	alphaOn  = 1.9
	alphaOff = 1.25
	meanOn   = 40.0
)

// seedFor derives the node's stream seed from the run seed; the large
// odd multiplier decorrelates adjacent node streams.
func seedFor(seed int64, node int) int64 {
	return seed*1_000_003 + int64(node)*7_919 + 11
}

// New returns a generator for the configuration. It panics on a
// configuration Validate would reject as unrealizable (rate above the
// ON-peak for self-similar traffic, transpose on a rectangle).
func New(cfg *config.Config, mesh topology.Mesh) *Generator {
	g := &Generator{
		cfg:     cfg,
		mesh:    mesh,
		pktProb: cfg.InjectionRate / meanPacketSize(cfg),
		rngs:    make([]rng.Stream, mesh.Nodes()),
		peak:    1.0,
		hot:     mesh.Node(mesh.Width/2, mesh.Height/2),
	}
	for i := range g.rngs {
		// Distinct, seed-derived stream per node.
		g.rngs[i].Init(seedFor(cfg.Seed, i))
	}
	if cfg.Dest == config.Transpose && mesh.Width != mesh.Height {
		panic(fmt.Sprintf("traffic: transpose needs a square mesh, got %dx%d", mesh.Width, mesh.Height))
	}
	if cfg.Traffic == config.SelfSimilar {
		if cfg.InjectionRate >= g.peak {
			panic(fmt.Sprintf("traffic: self-similar rate %g must stay below the ON-peak %g", cfg.InjectionRate, g.peak))
		}
		g.onoff = make([]onOffState, mesh.Nodes())
		for i := range g.onoff {
			// Start each source in an OFF period drawn from the
			// configured rate's own OFF distribution: a fixed
			// Int63n(meanOn) phase would start low-rate runs with OFF
			// periods far shorter than steady state, biasing the early
			// cycles toward synchronized over-injection.
			g.onoff[i] = onOffState{on: false, remaining: g.offPeriod(&g.rngs[i])}
		}
	}
	return g
}

// offPeriod draws one OFF-period length for the configured rate.
func (g *Generator) offPeriod(stream *rng.Stream) int64 {
	mo := g.meanOff()
	if math.IsInf(mo, 1) {
		return math.MaxInt64 / 2
	}
	return pareto(stream, alphaOff, mo)
}

// meanPacketSize returns the expected flits per packet, accounting
// for the variable-size protocol.
func meanPacketSize(cfg *config.Config) float64 {
	if cfg.PacketSizeMax > cfg.PacketSize {
		return float64(cfg.PacketSize+cfg.PacketSizeMax) / 2
	}
	return float64(cfg.PacketSize)
}

// meanOff returns the OFF-period mean that makes the long-run average
// rate equal the configured injection rate given the ON peak.
func (g *Generator) meanOff() float64 {
	r := g.cfg.InjectionRate
	if r <= 0 {
		return math.Inf(1)
	}
	return meanOn * (g.peak - r) / r
}

// pareto draws a Pareto(alpha, xm) variate where xm is derived from
// the requested mean: mean = alpha*xm/(alpha-1).
func pareto(stream *rng.Stream, alpha, mean float64) int64 {
	xm := mean * (alpha - 1) / alpha
	u := stream.Float64()
	for u == 0 {
		u = stream.Float64()
	}
	d := xm / math.Pow(u, 1/alpha)
	if d < 1 {
		d = 1
	}
	if d > 1e7 {
		d = 1e7 // clamp the heavy tail so one draw cannot stall a run
	}
	return int64(d)
}

// Tick advances every source by one cycle and calls
// emit(src, dst, size) for each packet created this cycle (at most
// one per node per cycle). Destination never returns the source
// itself, so every generated packet is emitted and each node's
// measured injection rate matches the configured offered load.
func (g *Generator) Tick(now int64, emit func(src, dst, size int)) {
	for node := 0; node < g.mesh.Nodes(); node++ {
		if g.generates(node) {
			emit(node, g.Destination(node), g.PacketSize(node))
		}
	}
}

// PacketSize draws the next packet's flit count for a source node.
func (g *Generator) PacketSize(node int) int {
	if g.cfg.PacketSizeMax > g.cfg.PacketSize {
		span := g.cfg.PacketSizeMax - g.cfg.PacketSize + 1
		return g.cfg.PacketSize + g.rngs[node].Intn(span)
	}
	return g.cfg.PacketSize
}

// generates decides whether the node creates a packet this cycle.
func (g *Generator) generates(node int) bool {
	stream := &g.rngs[node]
	switch g.cfg.Traffic {
	case config.UniformRandom:
		return g.pktProb > 0 && stream.Float64() < g.pktProb
	case config.SelfSimilar:
		st := &g.onoff[node]
		for st.remaining <= 0 {
			st.on = !st.on
			if st.on {
				st.remaining = pareto(stream, alphaOn, meanOn)
			} else {
				st.remaining = g.offPeriod(stream)
			}
		}
		st.remaining--
		if !st.on {
			return false
		}
		return stream.Float64() < g.peak/meanPacketSize(g.cfg)
	default:
		//vichar:invariant ParseTraffic and the exported constants yield only the processes above; any other value is a caller's programming error
		panic(fmt.Sprintf("traffic: unknown process %v", g.cfg.Traffic))
	}
}

// Destination draws a destination for a packet created at src
// according to the configured spatial pattern. Fixed permutation
// patterns map some sources to themselves (Transpose on the mesh
// diagonal, Bit-Complement on the center of an odd-sized mesh); a
// self-addressed packet would never enter the network, silently
// under-delivering the configured offered load at exactly those
// nodes, so such sources fall back to a uniform draw over the other
// nodes. The fallback consumes the node's own RNG stream, keeping the
// draw order deterministic and independent of other nodes.
func (g *Generator) Destination(src int) int {
	stream := &g.rngs[src]
	switch g.cfg.Dest {
	case config.NormalRandom:
		return g.uniformOther(stream, src)
	case config.Tornado:
		// Tornado offsets each packet ceil(k/2)-1 hops along X
		// (Singh et al., ISCA 2003), stressing the X bisection.
		x, y := g.mesh.XY(src)
		off := (g.mesh.Width+1)/2 - 1
		if off == 0 {
			off = 1
		}
		return g.mesh.Node((x+off)%g.mesh.Width, y)
	case config.Transpose:
		// (x,y) -> (y,x); the mesh is square (enforced by Validate and
		// by New), so the swapped coordinates are always in range.
		x, y := g.mesh.XY(src)
		if dst := g.mesh.Node(y, x); dst != src {
			return dst
		}
		return g.uniformOther(stream, src)
	case config.BitComplement:
		if dst := g.mesh.Nodes() - 1 - src; dst != src {
			return dst
		}
		return g.uniformOther(stream, src)
	case config.Hotspot:
		// HotspotFraction is used exactly as configured: Default()
		// carries 0.1 and Validate rejects a non-positive fraction.
		if src != g.hot && stream.Float64() < g.cfg.HotspotFraction {
			return g.hot
		}
		return g.uniformOther(stream, src)
	default:
		//vichar:invariant ParseDest and the exported constants yield only the patterns above; any other value is a caller's programming error
		panic(fmt.Sprintf("traffic: unknown destination pattern %v", g.cfg.Dest))
	}
}

// uniformOther draws uniformly among all nodes except src.
func (g *Generator) uniformOther(stream *rng.Stream, src int) int {
	n := g.mesh.Nodes()
	d := stream.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// HotNode returns the hotspot destination (the mesh center).
func (g *Generator) HotNode() int { return g.hot }

// State walks the generator's mutable state for a checkpoint taken at
// cycle now: per-node stream draw counts plus the ON/OFF source
// phases. Seeds do not travel — they re-derive from the config — and
// loading, into a generator freshly constructed from the same
// structural configuration, fast-forwards each node stream to its
// saved draw count.
func (g *Generator) State(c *snap.Codec, now int64) {
	c.Section("traffic")
	c.Expect(len(g.rngs), "traffic: node streams")
	for i := range g.rngs {
		g.rngs[i].State(c, now)
	}
	c.Expect(len(g.onoff), "traffic: ON/OFF sources")
	for i := range g.onoff {
		c.Bool(&g.onoff[i].on)
		c.I64(&g.onoff[i].remaining)
	}
}
