// Command flacbench regenerates every table and figure of the FlacOS
// paper's evaluation, plus the ablations behind its design claims.
//
// Usage:
//
//	flacbench -experiment all          # everything, paper-scale
//	flacbench -experiment fig4         # Redis latency, IPC vs TCP
//	flacbench -experiment container    # §4.2 container startup
//	flacbench -experiment sync         # ablation A: sync methods
//	flacbench -experiment pagecache    # ablation B: shared page cache
//	flacbench -experiment faultbox     # ablation C: fault box recovery
//	flacbench -experiment ipc          # ablation D: transports
//	flacbench -experiment dedup        # ablation E: page dedup
//	flacbench -experiment density      # ablation F: density-aware routing
//	flacbench -experiment sched        # ablation G: coordinated scheduling
//	flacbench -experiment redisrack    # rack-shared Redis: 1 vs N serving nodes
//	flacbench -experiment redisscale   # open-loop scaling to 16 nodes + hot-key combining
//	flacbench -experiment tiering      # hotness-tiered placement daemon vs static tiers
//	flacbench -experiment trace        # flight-recorder overhead budget
//	flacbench -experiment membership   # failure detection vs per-subsystem recovery
//	flacbench -experiment health       # gray-failure drain vs liveness-only baseline
//	flacbench -experiment fabric       # fabric per-op costs + ranged fast-path gates
//	flacbench -experiment torture      # seeded rack-wide fault-sweep matrix
//	flacbench -experiment torture -seed 42            # replay one failing seed
//	flacbench -experiment torture -torture-break ring-invalidate  # checker self-test
//	flacbench -list                    # list experiments, one per line
//	flacbench -quick                   # smaller workloads, same shapes
//
// The torture matrix exits nonzero if any sweep fails and writes the
// failing reports (seed + event trace) to torture-failures.txt for CI
// artifact upload. With -torture-break it inverts: the run must FAIL
// (the deliberately broken path must be caught) or flacbench exits 1.
//
// The redisrack experiment also exits nonzero on a stale, torn or
// backwards cross-node read, or a multi-node speedup under its gate.
// The redisscale experiment exits nonzero on any integrity violation,
// when hot-key combining misses its speedup gate at the gated node
// count, or when achieved throughput fails to track offered load below
// saturation.
// The tiering experiment exits nonzero on a stale, torn or lost record,
// a daemon/static speedup under its gate, a daemon that never moved a
// page, or achieved throughput failing to track offered load below
// saturation.
// The membership experiment exits nonzero on a zombie write leaking
// through a generation fence, a detection/recovery timeout, a lost or
// double-completed task, or membership recovery failing to beat the
// lease-expiry baseline.
// The health experiment exits nonzero when the anomaly-driven drain or
// rejoin never completes, a zombie write leaks through the early
// (pre-death) or post-crash generation fence, the liveness-only
// baseline declares the gray (alive, slow) node dead, exactly-once
// breaks, or proactive draining misses its tail-improvement gate.
// With -bench-json, experiments that publish machine-readable headline
// numbers write them to BENCH_<name>.json for cross-PR tracking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flacos/internal/experiments"
	"flacos/internal/torture"
)

// Torture replay/break overrides, read by the torture entry.
var (
	seed            = flag.Int64("seed", 0, "torture: replay a single seed instead of the sweep")
	tortureBreak    = flag.String("torture-break", "", "torture: enable a deliberately broken sync path (ring-invalidate|shootdown|drain-fence); the run must then be caught as FAIL")
	tortureWorkload = flag.String("torture-workload", "", "torture: restrict the matrix to one workload (ds|sched|fs|memsys|redisrack|membership|health)")
)

// experiment is one flacbench entry. run builds the full-size or -quick
// config, runs it, and returns the result plus a failure message ("" if
// every gate held).
type experiment struct {
	name string
	run  func(quick bool) (*experiments.Result, string)
}

// failIf returns msg when failed, else "".
func failIf(failed bool, msg string) string {
	if failed {
		return msg
	}
	return ""
}

// table lists every experiment in -list and "all" order.
var table = []experiment{
	{"fig4", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultFig4()
		if q {
			cfg.Requests = 300
		}
		return experiments.Fig4(cfg), ""
	}},
	{"container", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultContainer()
		if q {
			cfg.ImageBytes = 64 << 20
			cfg.RegistryBytesPerNS = 0.045 / 8
		}
		return experiments.Container(cfg), ""
	}},
	{"sync", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultSync()
		if q {
			cfg.Ops = 800
		}
		return experiments.SyncAblation(cfg), ""
	}},
	{"pagecache", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultPageCache()
		if q {
			cfg.Files, cfg.PagesPer = 4, 16
		}
		return experiments.PageCacheAblation(cfg), ""
	}},
	{"faultbox", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultFaultBox()
		if q {
			cfg.AppCounts = []int{2, 8}
		}
		return experiments.FaultBoxAblation(cfg), ""
	}},
	{"ipc", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultIPC()
		if q {
			cfg.Rounds = 300
		}
		return experiments.IPCAblation(cfg), ""
	}},
	{"dedup", func(q bool) (*experiments.Result, string) {
		return experiments.DedupAblation(experiments.DefaultDedup()), ""
	}},
	{"density", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultDensity()
		if q {
			cfg.Invokes = 100
		}
		return experiments.DensityAblation(cfg), ""
	}},
	{"sched", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultSched()
		if q {
			cfg.Tasks = 120
			cfg.CrashTasks = 24
		}
		return experiments.SchedAblation(cfg), ""
	}},
	{"redisrack", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultRedisRack()
		if q {
			cfg.Batches = 80
			cfg.LatencyOps = 60
		}
		res, failed := experiments.RedisRack(cfg)
		return res, failIf(failed, "redisrack observed a stale/torn/backwards read or missed its multi-node speedup gate")
	}},
	{"redisscale", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultRedisScale()
		if q {
			cfg.NodeCounts = []int{1, 2, 4}
			cfg.CombineNodes = 4
			cfg.Rounds = 10
			cfg.OpsPerRound = 32
			// At 4 nodes and a tenth of the ops, fixed sweep costs
			// amortize over far less fan-in; the smoke bar proves
			// combining still wins, the full run enforces 1.5x.
			cfg.CombineGate = 1.1
		}
		res, failed := experiments.RedisScale(cfg)
		return res, failIf(failed, "redisscale observed an integrity violation, missed the combining speedup gate, or failed to track offered load below saturation")
	}},
	{"tiering", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultTiering()
		if q {
			// A sixty-fourth of the span and a twenty-fifth of the ops:
			// the same Zipf shape, but fixed per-move costs amortize over
			// far fewer accesses, so the smoke bar proves the daemon
			// still wins while the full run enforces 1.3x.
			cfg.SpanPages = 1 << 14
			cfg.Ops = 120_000
			cfg.Rounds = 12
			cfg.LocalPagesPerNode = 1024
			cfg.Gate = 1.15
		}
		res, failed := experiments.Tiering(cfg)
		return res, failIf(failed, "tiering observed a stale/torn/lost record, missed its daemon/static speedup gate, never moved a page, or failed to track offered load below saturation")
	}},
	{"trace", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultTrace()
		if q {
			cfg.EmitEvents = 20_000
			cfg.Tasks = 150
			cfg.FSOps = 80
		}
		res, failed := experiments.Trace(cfg)
		return res, failIf(failed, "trace experiment exceeded its overhead budget or dropped events")
	}},
	{"membership", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultMembership()
		if q {
			cfg.Rounds = 3
			cfg.TasksPerRound = 40
		}
		res, failed := experiments.Membership(cfg)
		return res, failIf(failed, "membership experiment leaked a zombie write, timed out detecting/recovering, lost exactly-once, or did not beat the lease-expiry baseline")
	}},
	{"health", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultHealth()
		if q {
			// A third of the tasks per ramp level; the ramp itself (and
			// with it the accounting-derived bench headline) is identical
			// to the full run, so BENCH_health.json never drifts with -quick.
			cfg.TasksPerLevel = 80
		}
		res, failed := experiments.Health(cfg)
		return res, failIf(failed, "health experiment failed its drain/rejoin, leaked a zombie write through a fence, false-killed the gray baseline node, broke exactly-once, or missed its tail gate")
	}},
	{"fabric", func(q bool) (*experiments.Result, string) {
		cfg := experiments.DefaultFabric()
		if q {
			// Shorter wall loops and no hooked-miss gate: the virtual
			// cost rows (and with them BENCH_fabric.json) come from
			// single deterministic charges, so the artifact is byte-
			// identical to the full run's.
			cfg.HitReps, cfg.MissReps, cfg.AtomicReps = 40_000, 10_000, 20_000
			cfg.RangedReps = 1_000
			cfg.GateHookDispatch = false
		}
		res, failed := experiments.Fabric(cfg)
		return res, failIf(failed, "fabric experiment missed its ranged speedup gate, diverged from the per-line virtual cost model, or hook dispatch cost nothing over the no-hook fence path")
	}},
	{"torture", func(q bool) (*experiments.Result, string) {
		return runTorture(q, *seed, *tortureBreak, *tortureWorkload)
	}},
}

func main() {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	exp := flag.String("experiment", "all", "which experiment to run ("+strings.Join(names, "|")+"|all)")
	quick := flag.Bool("quick", false, "run reduced workloads (CI-sized, same shapes)")
	list := flag.Bool("list", false, "list available experiments and exit")
	benchJSON := flag.Bool("bench-json", false, "write each experiment's machine-readable headline to BENCH_<name>.json")
	flag.Parse()

	if *list {
		for _, name := range names {
			fmt.Println(name)
		}
		return
	}

	selected := table
	if *exp != "all" {
		selected = nil
		for _, e := range table {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "flacbench: unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
	}

	exitCode := 0
	for _, e := range selected {
		start := time.Now()
		res, failMsg := e.run(*quick)
		if failMsg != "" {
			fmt.Fprintln(os.Stderr, "flacbench: "+failMsg)
			exitCode = 1
		}
		fmt.Println(res.String())
		if *benchJSON {
			if res.Bench == nil {
				// An explicitly requested artifact that doesn't exist is an
				// error, not a silent pass; under -experiment all only the
				// experiments that publish headlines write files.
				if *exp != "all" {
					fmt.Fprintf(os.Stderr, "flacbench: -bench-json: %s publishes no bench headline\n", e.name)
					exitCode = 1
				}
			} else if err := writeBenchJSON(res.Bench); err != nil {
				fmt.Fprintf(os.Stderr, "flacbench: could not write bench JSON for %s: %v\n", e.name, err)
				exitCode = 1
			}
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", e.name, time.Since(start).Seconds())
	}
	os.Exit(exitCode)
}

// writeBenchJSON dumps one experiment's headline numbers to
// BENCH_<name>.json — the machine-readable artifact CI uploads so the
// bench trajectory is tracked across PRs.
func writeBenchJSON(b *experiments.Bench) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("refusing to write malformed headline: %w", err)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", b.Name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flacbench: bench headline written to %s\n", path)
	return nil
}

// runTorture executes the torture matrix with the CLI's replay/break
// overrides and handles its pass/fail contract: normally any failing
// sweep fails the run and lands in torture-failures.txt; under
// -torture-break the matrix MUST fail (the planted bug must be caught),
// so a clean run is the failure.
func runTorture(quick bool, seed int64, brk, workload string) (*experiments.Result, string) {
	cfg := experiments.DefaultTorture()
	if quick {
		cfg.Seeds = []int64{1, 7}
		cfg.OpsPerClient = 120
		cfg.Events = 4
	}
	if seed != 0 {
		cfg.Seeds = []int64{seed}
	}
	cfg.Break = brk
	if workload != "" {
		cfg.Workloads = []string{workload}
	}
	res, failures := experiments.Torture(cfg)

	if brk != "" {
		if len(failures) == 0 {
			return res, fmt.Sprintf("broken path %q was NOT caught by any sweep", brk)
		}
		fmt.Printf("broken path %q caught by %d sweep(s), as required\n", brk, len(failures))
		// Still dump the flight-recorder extracts: a planted-bug run is a
		// cheap way to eyeball what the recorder captures around a failure.
		writeTraceArtifacts(failures)
		return res, ""
	}
	if len(failures) == 0 {
		return res, ""
	}
	msg := fmt.Sprintf("%d torture sweep(s) failed; reports written to torture-failures.txt", len(failures))
	f, err := os.Create("torture-failures.txt")
	if err == nil {
		for _, rep := range failures {
			fmt.Fprintln(f, rep.String())
		}
		f.Close()
	} else {
		msg = fmt.Sprintf("%d torture sweep(s) failed (could not write report file: %v)", len(failures), err)
	}
	writeTraceArtifacts(failures)
	for _, rep := range failures {
		fmt.Fprint(os.Stderr, rep.String())
	}
	return res, msg
}

// writeTraceArtifacts dumps each failing sweep's merged flight-recorder
// extract next to torture-failures.txt: the human timeline as
// torture-trace-<workload>-seed<N>.txt and the Chrome trace_event JSON
// (chrome://tracing, ui.perfetto.dev) as the matching .json.
func writeTraceArtifacts(failures []*torture.Report) {
	for _, rep := range failures {
		if rep.TraceTimeline == "" && rep.TraceJSON == nil {
			continue
		}
		base := fmt.Sprintf("torture-trace-%s-seed%d", rep.Workload, rep.Seed)
		if rep.TraceTimeline != "" {
			if err := os.WriteFile(base+".txt", []byte(rep.TraceTimeline), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flacbench: could not write %s.txt: %v\n", base, err)
				continue
			}
		}
		if rep.TraceJSON != nil {
			if err := os.WriteFile(base+".json", rep.TraceJSON, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flacbench: could not write %s.json: %v\n", base, err)
				continue
			}
		}
		fmt.Fprintf(os.Stderr, "flacbench: rack trace for %s seed %d written to %s.{txt,json}\n",
			rep.Workload, rep.Seed, base)
	}
}
