package loadgen

import "flacos/internal/metrics"

// Op is one scheduled request in an open-loop replay: it arrives at a
// fixed virtual-ns time, executes on one server, and occupies that server
// for its measured service time.
type Op struct {
	ArrivalNS uint64 // fixed by the Poisson schedule, never by the server
	Server    int    // which serving node executes it
	ServiceNS uint64 // measured per-op service time on that node
}

// Row is one measured point of an offered-load sweep, the unit the
// redisscale bench artifact records per node count.
type Row struct {
	Nodes       int     `json:"nodes"`
	OfferedLoad float64 `json:"offered_load"` // ops/sec scheduled
	// LoadFactor is OfferedLoad as a fraction of the capacity the sweep
	// measured (0 when the sweep did not record one). It names the row
	// across runs whose capacity, and with it the offered load, moved.
	LoadFactor        float64 `json:"load_factor,omitempty"`
	AchievedOpsPerSec float64 `json:"achieved_ops_per_sec"`
	P50NS             uint64  `json:"p50_ns"` // sojourn = queueing + service
	P99NS             uint64  `json:"p99_ns"`
	P999NS            uint64  `json:"p999_ns"`
}

// Replay pushes an arrival schedule through per-server FIFO queues and
// returns the achieved throughput plus the sojourn-time histogram. Each
// op starts at max(arrival, server free) and completes after its service
// time; sojourn is completion minus arrival, so queueing delay — the
// thing closed-loop harnesses hide — is measured, not masked. ops must be
// in non-decreasing ArrivalNS order (a Poisson schedule is). Achieved
// throughput is total ops over the span from first arrival to last
// completion: at low load it tracks the offered rate; past saturation the
// backlog stretches the span and achieved falls below offered — that
// divergence IS the knee.
func Replay(ops []Op, servers int) (achievedOpsPerSec float64, sojourn *metrics.Histogram) {
	sojourn = metrics.NewHistogram()
	if len(ops) == 0 {
		return 0, sojourn
	}
	freeAt := make([]uint64, servers)
	var lastDone uint64
	for _, op := range ops {
		start := op.ArrivalNS
		if freeAt[op.Server] > start {
			start = freeAt[op.Server]
		}
		done := start + op.ServiceNS
		freeAt[op.Server] = done
		if done > lastDone {
			lastDone = done
		}
		sojourn.Record(float64(done - op.ArrivalNS))
	}
	span := lastDone - ops[0].ArrivalNS
	if span == 0 {
		span = 1
	}
	return float64(len(ops)) / float64(span) * 1e9, sojourn
}

// MeasureRow runs one sweep point: replay ops on servers at the offered
// load and package the result as a Row.
func MeasureRow(nodes int, offered float64, ops []Op, servers int) Row {
	achieved, h := Replay(ops, servers)
	return Row{
		Nodes:             nodes,
		OfferedLoad:       offered,
		AchievedOpsPerSec: achieved,
		P50NS:             uint64(h.Percentile(50)),
		P99NS:             uint64(h.Percentile(99)),
		P999NS:            uint64(h.Percentile(99.9)),
	}
}

// Knee returns the index of the first row whose achieved throughput falls
// below frac of its offered load — the saturation knee of a sweep ordered
// by increasing offered load — or -1 if the sweep never saturates.
func Knee(rows []Row, frac float64) int {
	for i, r := range rows {
		if r.AchievedOpsPerSec < frac*r.OfferedLoad {
			return i
		}
	}
	return -1
}
