// Package experiments reproduces the paper's evaluation (§4.2) and the
// ablations behind its design claims (§3). Each experiment builds its own
// simulated rack, runs the workload, and reports results in VIRTUAL time —
// the fabric's deterministic cost accounting — so runs are reproducible
// and independent of host scheduling. cmd/flacbench prints the tables; the
// repo-root benchmarks wrap the same functions.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"flacos/internal/loadgen"
	"flacos/internal/metrics"
)

// Result is one experiment's rendered output plus raw series for
// programmatic checks (tests assert on the shapes the paper claims).
type Result struct {
	Name  string
	Table *metrics.Table
	// Ratios holds the experiment's headline comparisons, e.g.
	// "tcp/ipc set 64B" -> 2.1.
	Ratios map[string]float64
	// Bench, when set, is the experiment's machine-readable headline for
	// cross-PR tracking (flacbench -bench-json writes it to
	// BENCH_<name>.json).
	Bench *Bench
}

// Bench is one experiment's headline numbers in machine-readable form.
// Times are virtual nanoseconds; throughput is ops per virtual second.
type Bench struct {
	Name      string  `json:"name"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50NS     float64 `json:"p50_ns"`
	P99NS     float64 `json:"p99_ns"`
	// Rows, when set, holds a sweep's full per-configuration series (the
	// redisscale scaling curve: one row per node count and offered load).
	Rows []loadgen.Row `json:"rows,omitempty"`
	// Ops, when set, holds per-operation cost rows (the fabric
	// micro-benchmark: one row per op kind). VirtualNS comes from the
	// deterministic cost model and is bit-stable across runs and hosts;
	// WallNS is host-dependent and omitted from committed artifacts.
	Ops []OpCost `json:"ops,omitempty"`
}

// OpCost is one operation's cost row inside a Bench.
type OpCost struct {
	Op        string  `json:"op"`
	VirtualNS float64 `json:"virtual_ns"`
	WallNS    float64 `json:"wall_ns,omitempty"`
}

// Validate checks a Bench is a publishable artifact: named, with positive
// finite headline numbers and well-formed rows. flacbench refuses to write
// a bench JSON that fails this — a zeroed artifact sailing through CI
// unnoticed is exactly the failure mode the check exists to close.
func (b *Bench) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("bench has no name")
	}
	if !(b.OpsPerSec > 0) || math.IsInf(b.OpsPerSec, 0) {
		return fmt.Errorf("bench %s: ops_per_sec %v is not positive and finite", b.Name, b.OpsPerSec)
	}
	if !(b.P50NS > 0) || !(b.P99NS >= b.P50NS) || math.IsInf(b.P99NS, 0) {
		return fmt.Errorf("bench %s: malformed percentiles p50=%v p99=%v", b.Name, b.P50NS, b.P99NS)
	}
	for i, r := range b.Rows {
		if r.Nodes <= 0 || !(r.OfferedLoad > 0) || !(r.AchievedOpsPerSec > 0) ||
			r.P50NS == 0 || r.P99NS < r.P50NS || r.P999NS < r.P99NS ||
			math.IsInf(r.OfferedLoad, 0) || math.IsInf(r.AchievedOpsPerSec, 0) ||
			!(r.LoadFactor >= 0) || math.IsInf(r.LoadFactor, 0) {
			return fmt.Errorf("bench %s: malformed row %d: %+v", b.Name, i, r)
		}
	}
	seen := map[string]bool{}
	for i, op := range b.Ops {
		if op.Op == "" {
			return fmt.Errorf("bench %s: op row %d has no name", b.Name, i)
		}
		if seen[op.Op] {
			return fmt.Errorf("bench %s: duplicate op row %q", b.Name, op.Op)
		}
		seen[op.Op] = true
		if !(op.VirtualNS > 0) || math.IsInf(op.VirtualNS, 0) {
			return fmt.Errorf("bench %s: op %q virtual_ns %v is not positive and finite", b.Name, op.Op, op.VirtualNS)
		}
		if op.WallNS < 0 || math.IsInf(op.WallNS, 0) || math.IsNaN(op.WallNS) {
			return fmt.Errorf("bench %s: op %q wall_ns %v is malformed", b.Name, op.Op, op.WallNS)
		}
	}
	return nil
}

func (r *Result) String() string {
	out := "== " + r.Name + " ==\n" + r.Table.String()
	if len(r.Ratios) > 0 {
		out += "headline ratios:\n"
		keys := make([]string, 0, len(r.Ratios))
		for k := range r.Ratios {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out += fmt.Sprintf("  %-32s %.2fx\n", k, r.Ratios[k])
		}
	}
	return out
}

func ns(v float64) string { return metrics.FormatNS(v) }
