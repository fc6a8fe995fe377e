package vichar

import (
	"encoding/json"
	"errors"
	"fmt"

	"vichar/internal/network"
	"vichar/internal/power"
	"vichar/internal/snap"
)

// This file is the public checkpoint/restore API. A snapshot is a
// versioned, checksummed, self-describing byte blob carrying the
// configuration (as JSON) and the network's complete mutable state —
// every buffered flit, in-flight link payload, pipeline register,
// arbiter pointer, credit mirror, retransmission hold, RNG stream
// position, statistic and staged metric. The resume contract is
// bit-identical: a simulator restored at cycle C and run to completion
// produces exactly the results, per-packet latencies, counters and
// flit-event streams of the simulator that ran straight through.
//
// Snapshots are legal only between Steps (Snapshot refuses mid-cycle
// state, which cannot arise through this package's API). Restore
// follows a construct-then-load discipline: the embedded configuration
// rebuilds all wiring, then only mutable values are loaded, so a
// snapshot never carries pointers, and any single corrupted byte is
// rejected by the envelope checksum before state is touched. A blob
// that passes the checksum is still untrusted: every loaded field is
// range-checked, the loaded state is audited for consistency, and the
// body must be consumed exactly.

// Snapshot serializes the simulator's complete state. The staged
// metrics pipeline is captured as-is — deliberately not flushed first,
// so the restored run's registry drains on exactly the straight-through
// run's cadence.
func (s *Simulator) Snapshot() ([]byte, error) {
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("vichar: snapshot config: %w", err)
	}
	data, err := snap.Save(func(c *snap.Codec) {
		c.Section("config")
		c.Bytes(&cfgJSON)
		s.net.State(c)
	})
	if err != nil {
		return nil, fmt.Errorf("vichar: snapshot: %w", err)
	}
	return data, nil
}

// Overrides names the protocol parameters RestoreWith may change on a
// restored simulator. Only parameters that do not shape wired state
// are overridable — warm one simulator once, snapshot it, and branch N
// runs with different injection rates or measurement quotas from the
// same warmed state. A nil field keeps the snapshot's value.
type Overrides struct {
	// InjectionRate replaces the offered load (flits/node/cycle).
	InjectionRate *float64
	// WarmupPackets replaces the warm-up quota.
	WarmupPackets *int
	// MeasurePackets replaces the measurement quota.
	MeasurePackets *int
	// MaxCycles replaces the saturation cycle cap.
	MaxCycles *int64
}

// Restore rebuilds a simulator from a Snapshot blob. The restored
// simulator is indistinguishable from the one that produced the
// snapshot: running both forward produces bit-identical results.
func Restore(data []byte) (*Simulator, error) {
	return RestoreWith(data, Overrides{})
}

// RestoreWith rebuilds a simulator from a Snapshot blob with selected
// protocol parameters overridden; see Overrides.
func RestoreWith(data []byte, o Overrides) (*Simulator, error) {
	c, err := snap.Open(data)
	if err != nil {
		return nil, fmt.Errorf("vichar: restore: %w", err)
	}
	var raw []byte
	c.Section("config")
	c.Bytes(&raw)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("vichar: restore: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("vichar: restore config: %w", err)
	}
	if o.InjectionRate != nil {
		cfg.InjectionRate = *o.InjectionRate
	}
	if o.WarmupPackets != nil {
		cfg.WarmupPackets = *o.WarmupPackets
	}
	if o.MeasurePackets != nil {
		cfg.MeasurePackets = *o.MeasurePackets
	}
	if o.MaxCycles != nil {
		cfg.MaxCycles = *o.MaxCycles
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("vichar: restore: %w", err)
	}
	s := &Simulator{
		cfg:   cfg,
		net:   network.New(&cfg),
		model: power.NewModel(&cfg),
	}
	s.net.State(c)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("vichar: restore: %w", err)
	}
	return s, nil
}

// Ejected returns the number of packets ejected so far; with Created
// it tells whether a prospective checkpoint would land mid-packet.
func (s *Simulator) Ejected() int64 { return s.net.Collector().Ejected() }

// Created returns the number of packets created so far.
func (s *Simulator) Created() int64 { return s.net.CreatedPackets() }

// Latencies returns the per-packet latencies recorded in the
// measurement window so far, in ejection order, under the same
// bit-identical resume contract, sample for sample. The slice is a
// read-only view of the simulator's own record, not a copy: do not
// write to it (an append copies, since its capacity ends at its
// length). Later steps only record past its end, so it stays a valid
// prefix of the record.
func (s *Simulator) Latencies() []int64 { return s.net.Collector().Latencies() }

// RunCheckpointed executes the full measurement protocol like Run,
// additionally handing sink a fresh snapshot roughly every `every`
// cycles. A non-nil error from sink aborts the run; a wedged run
// returns its results so far, marked Saturated, with the *WedgeError.
func (s *Simulator) RunCheckpointed(every int64, sink func(cycle int64, data []byte) error) (Results, error) {
	if every <= 0 {
		return Results{}, fmt.Errorf("vichar: checkpoint interval %d, want > 0", every)
	}
	next := s.net.Now() + every
	res, err := s.net.RunWith(func(now int64) error {
		if now < next {
			return nil
		}
		next = now + every
		data, err := s.Snapshot()
		if err != nil {
			return err
		}
		return sink(now, data)
	})
	if err != nil && !errors.As(err, new(*WedgeError)) {
		return Results{}, err
	}
	s.model.Annotate(&res)
	return res, err
}
