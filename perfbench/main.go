// Command perfbench is the rack benchmark: it boots the production wiring
// in core.Rack and drives one of three workloads — Redis served over
// FlacOS IPC from the rack-shared store (read-heavy Zipf and write-heavy
// uniform) and container starts through the shared page cache — from a
// single goroutine in deterministic lockstep. Run it from the root of a
// checkout:
//
//	bash perfbench/run.sh --workload kv-read-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the verdict
// and the metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics (from a traced run checked against an untraced one) with
// --trace 1. README.md in this directory describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// runCfg is one run's settings.
type runCfg struct {
	seed    uint64
	scale   float64 // --seconds; each workload issues a fixed count per second
	setups  int     // setups per run; setup_s is their median
	corrupt bool    // checker self-test: damage one value the checker reads
}

// result is one workload run.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	hostNSPerOp       float64
	schedule, sim     string // digests of the generated inputs and of the simulation
	notes             []string
}

type workload struct {
	name string
	run  func(runCfg, *tracer) (*result, error)
}

// The workload definitions; README.md says why each exists. Rates, limits
// and ladders are fixed here once: a change that moves them is a change
// to the benchmark, not a gain.
var workloads = []workload{
	{
		name: "kv-read-zipf",
		run: func(c runCfg, t *tracer) (*result, error) {
			return runKV(kvSpec{
				keys: 16384, valueBytes: 64, zipfS: 0.99,
				getPct: 95, setPct: 5,
				opsPerSecond: 45_000, warmOps: 2000,
				refRate: 66_000, p99LimitNS: 440_000,
				ladder: ladder{lo: 20_000, step: 1.01, rungs: 240},
			}, c, t)
		},
	},
	{
		name: "kv-write-uniform",
		run: func(c runCfg, t *tracer) (*result, error) {
			return runKV(kvSpec{
				keys: 4096, counters: 256, valueBytes: 1024,
				getPct: 25, setPct: 60, incrPct: 10, delPct: 5,
				opsPerSecond: 20_000, warmOps: 2000,
				refRate: 50_000, p99LimitNS: 710_000,
				ladder: ladder{lo: 10_000, step: 1.01, rungs: 240},
			}, c, t)
		},
	},
	{
		name: "container-start",
		run: func(c runCfg, t *tracer) (*result, error) {
			return runContainer(ctrSpec{
				nodes: 4, cacheFrames: 1025,
				imagePages: 1200, minPages: 16, maxPages: 80, maxLayers: 3,
				roundsPerSecond: 4.5, readBackLayers: 8,
				p99LimitNS: 60e9,
				ladder:     ladder{lo: 0.05, step: 1.01, rungs: 320},
			}, c, t)
		},
	},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_heap_mb", "MiB"},
	{"virt_p50_us", "us"},
	{"virt_p90_us", "us"},
	{"virt_p99_us", "us"},
	{"virt_capacity_ops_s", "1/s"},
	{"virt_ns_per_op", "ns"},
}

// virtualMetrics are the end-to-end metrics priced in the fabric's
// virtual clock: bit-identical for a seed, traced or not.
var virtualMetrics = []string{"virt_p50_us", "virt_p90_us", "virt_p99_us", "virt_capacity_ops_s", "virt_ns_per_op"}

// perLayer are the metrics of the traced run (--trace 1). Every workload
// reports every one; a layer a workload leaves idle reports zero.
var perLayer = []metricDef{
	{"fabric.loads_per_op", "count"},
	{"fabric.stores_per_op", "count"},
	{"fabric.hit_ratio", "ratio"},
	{"fabric.misses_per_op", "count"},
	{"fabric.writebacks_per_op", "count"},
	{"fabric.invalidates_per_op", "count"},
	{"fabric.atomics_per_op", "count"},
	{"fabric.fences_per_op", "count"},
	{"fabric.bulk_read_bytes_per_op", "B"},
	{"fabric.bulk_write_bytes_per_op", "B"},
	{"fabric.server_virt_ns_per_op", "ns"},
	{"fabric.client_virt_ns_per_op", "ns"},
	{"ipc.send_virt_ns", "ns"},
	{"ipc.recv_virt_ns", "ns"},
	{"ipc.send_host_ns", "ns"},
	{"ipc.recv_host_ns", "ns"},
	{"ipc.msg_bytes", "B"},
	{"redis.exec_virt_ns", "ns"},
	{"redis.exec_host_ns", "ns"},
	{"redis.client_host_ns", "ns"},
	{"redis.get_hit_ratio", "ratio"},
	{"redis.arena_allocs_per_op", "count"},
	{"redis.arena_frees_per_op", "count"},
	{"redis.live_keys", "count"},
	{"fs.pagecache_hit_ratio", "ratio"},
	{"fs.cached_pages", "count"},
	{"fs.dirty_pages", "count"},
	{"fs.dev_reads_per_start", "count"},
	{"fs.dev_writes_per_start", "count"},
	{"fs.drop_caches_per_start", "count"},
	{"fs.read_back_host_ns", "ns"},
	{"serverless.start_host_ms", "ms"},
	{"serverless.manifest_virt_ms", "ms"},
	{"serverless.fetch_shared_virt_ms", "ms"},
	{"serverless.fetch_cold_virt_ms", "ms"},
	{"serverless.unpack_virt_ms", "ms"},
	{"serverless.init_virt_ms", "ms"},
	{"serverless.registry_layer_pulls", "count"},
	{"serverless.shared_start_ratio", "ratio"},
	{"host.alloc_bytes_per_op", "B"},
	{"host.allocs_per_op", "count"},
	{"host.gc_cycles", "count"},
	{"host.gc_pause_ms", "ms"},
	{"bench.request_self_host_ns", "ns"},
	{"bench.trace_overhead", "ratio"},
	{"bench.failed_ratio", "ratio"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// execute runs workload w once untraced, or with traced set, an untraced
// and a traced run whose simulations must agree exactly.
func execute(w workload, cfg runCfg, traced bool, traceDir string) (output, []string, error) {
	base, err := w.run(cfg, nil)
	if err != nil {
		return output{}, nil, err
	}
	notes := append([]string{}, base.notes...)
	notes = append(notes, fmt.Sprintf("digest %s seed=%d schedule=%s sim=%s", w.name, cfg.seed, base.schedule, base.sim))
	out := output{
		Correct:   base.failed == 0,
		Attempted: base.attempted,
		Failed:    base.failed,
	}
	values, defs := base.e2e, endToEnd
	if traced {
		tr := newTracer()
		cfg.setups = 1
		t, err := w.run(cfg, tr)
		if err != nil {
			return output{}, nil, err
		}
		notes = append(notes, fmt.Sprintf("digest %s seed=%d schedule=%s sim=%s (traced)", w.name, cfg.seed, t.schedule, t.sim))
		same := t.sim == base.sim
		for _, k := range virtualMetrics {
			same = same && t.e2e[k] == base.e2e[k]
		}
		if !same {
			notes = append(notes, "MISMATCH: the traced run simulated a different rack than the untraced run")
		}
		out.Correct = out.Correct && same && t.failed == 0
		out.Attempted += t.attempted
		out.Failed += t.failed
		values, defs = t.layers, perLayer
		values["bench.trace_overhead"] = t.hostNSPerOp/base.hostNSPerOp - 1
		values["bench.failed_ratio"] = float64(out.Failed) / float64(out.Attempted)
		if traceDir != "" {
			path, err := tr.write(traceDir, w.name, cfg.seed)
			if err != nil {
				return output{}, nil, fmt.Errorf("write spans: %w", err)
			}
			notes = append(notes, fmt.Sprintf("%d spans written to %s", len(tr.kept), path))
		}
	}
	out.Metrics = map[string]metricOut{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			notes = append(notes, "metric "+d.name+" is not a number")
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, notes, nil
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "run length; each workload issues a fixed amount of work per second")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run, checked against an untraced one")
	traceDir := flag.String("trace-dir", ".bench_build/perfbench-traces", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for _, w := range workloads {
			names = append(names, w.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, scale: float64(*seconds), setups: 5}
	out, notes, err := execute(w, cfg, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
