// Command benchdiff compares committed bench baselines against freshly
// produced candidates and fails CI on regressions, turning the
// BENCH_<name>.json artifacts from snapshots into an enforced trajectory.
//
// Usage:
//
//	benchdiff baseline.json candidate.json            # one pair
//	benchdiff -baseline-dir . -candidate-dir out/     # every BENCH_*.json
//
// Rules, per metric, expressed as a regression fraction against the
// baseline (improvements never fail):
//
//   - ops_per_sec (and per-row achieved throughput): lower is worse;
//     fails beyond -fail-ops (default 10%).
//   - p99_ns (and per-row / per-op latencies, including virtual costs):
//     higher is worse; fails beyond -fail-p99 (default 5%).
//   - per-op wall_ns: compared only when BOTH sides carry it (committed
//     artifacts are virtual-only; wall rows appear in local comparisons);
//     fails beyond -fail-wall (default 10%).
//   - p50_ns: warns only — medians jitter, tails gate.
//   - a regression past -warn-frac of its threshold (default half) but
//     under the threshold prints a WARN and still passes.
//   - a tracked op or row present in the baseline but missing from the
//     candidate FAILS: coverage is part of the trajectory. New candidate
//     rows are reported and pass. Sweep rows pair up by (nodes, load
//     factor), or by (nodes, offered load) for a baseline row that
//     records no factor.
//
// Benches named in -advisory are fully compared and reported but never
// set a failing exit code — for wall-derived artifacts whose absolute
// numbers are host-dependent (membership, redisrack).
//
// Exit codes: 0 pass (possibly with warnings), 1 regression or missing
// coverage, 2 malformed input — an artifact that fails Bench.Validate is
// refused outright rather than "compared", so a zeroed candidate can
// never pass as "no regression".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flacos/internal/experiments"
	"flacos/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type rules struct {
	failOps  float64
	failP99  float64
	failWall float64
	warnFrac float64
	advisory map[string]bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("baseline-dir", "", "directory holding baseline BENCH_*.json files")
	candDir := fs.String("candidate-dir", "", "directory holding candidate BENCH_*.json files (same names)")
	failOps := fs.Float64("fail-ops", 0.10, "failing throughput regression fraction")
	failP99 := fs.Float64("fail-p99", 0.05, "failing p99/virtual latency regression fraction")
	failWall := fs.Float64("fail-wall", 0.10, "failing wall-ns regression fraction")
	warnFrac := fs.Float64("warn-frac", 0.5, "fraction of a failing threshold that starts the warn band")
	advisory := fs.String("advisory", "", "comma-separated bench names compared report-only (never fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	r := rules{failOps: *failOps, failP99: *failP99, failWall: *failWall,
		warnFrac: *warnFrac, advisory: map[string]bool{}}
	for _, name := range strings.Split(*advisory, ",") {
		if name = strings.TrimSpace(name); name != "" {
			r.advisory[name] = true
		}
	}

	type pair struct{ base, cand string }
	var pairs []pair
	switch {
	case *baseDir != "" && *candDir != "":
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "benchdiff: positional files and -baseline-dir/-candidate-dir are mutually exclusive")
			return 2
		}
		matches, err := filepath.Glob(filepath.Join(*baseDir, "BENCH_*.json"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(stderr, "benchdiff: no BENCH_*.json baselines in %s\n", *baseDir)
			return 2
		}
		sort.Strings(matches)
		for _, m := range matches {
			pairs = append(pairs, pair{m, filepath.Join(*candDir, filepath.Base(m))})
		}
	case fs.NArg() == 2:
		pairs = []pair{{fs.Arg(0), fs.Arg(1)}}
	default:
		fmt.Fprintln(stderr, "benchdiff: need either two files or -baseline-dir and -candidate-dir")
		fs.Usage()
		return 2
	}

	exit := 0
	for _, p := range pairs {
		base, err := loadBench(p.base)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: refusing baseline %s: %v\n", p.base, err)
			return 2
		}
		cand, err := loadBench(p.cand)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: refusing candidate %s: %v\n", p.cand, err)
			return 2
		}
		verdict := compare(base, cand, r, stdout)
		if verdict > exit {
			exit = verdict
		}
	}
	if exit == 0 {
		fmt.Fprintln(stdout, "benchdiff: no failing regressions")
	}
	return exit
}

// loadBench reads and validates one artifact. Validation reuses the same
// Bench.Validate that gates flacbench's writer: an artifact malformed
// enough that flacbench would have refused to write it is refused here
// too, instead of being compared field-by-garbage-field.
func loadBench(path string) (*experiments.Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b experiments.Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("malformed JSON: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("malformed artifact: %w", err)
	}
	return &b, nil
}

// compare reports every metric pair of one bench and returns its exit
// contribution (0 pass/warn, 1 fail).
func compare(base, cand *experiments.Bench, r rules, out io.Writer) int {
	if base.Name != cand.Name {
		fmt.Fprintf(out, "FAIL  %s: candidate is named %q\n", base.Name, cand.Name)
		return 1
	}
	adv := r.advisory[base.Name]
	failed := false
	check := func(metric string, baseV, candV, tol float64, higherBetter bool) {
		var frac float64 // regression fraction; negative means improvement
		if higherBetter {
			frac = (baseV - candV) / baseV
		} else {
			frac = (candV - baseV) / baseV
		}
		status := "ok   "
		switch {
		case frac > tol:
			status = "FAIL "
			failed = true
		case frac > tol*r.warnFrac:
			status = "WARN "
		}
		fmt.Fprintf(out, "%s %s/%s: baseline %.6g candidate %.6g (%+.1f%%)\n",
			status, base.Name, metric, baseV, candV, frac*100)
	}
	warnOnly := func(metric string, baseV, candV, tol float64) {
		frac := (candV - baseV) / baseV
		status := "ok   "
		if frac > tol {
			status = "WARN "
		}
		fmt.Fprintf(out, "%s %s/%s: baseline %.6g candidate %.6g (%+.1f%%, warn-only)\n",
			status, base.Name, metric, baseV, candV, frac*100)
	}

	check("ops_per_sec", base.OpsPerSec, cand.OpsPerSec, r.failOps, true)
	check("p99_ns", base.P99NS, cand.P99NS, r.failP99, false)
	warnOnly("p50_ns", base.P50NS, cand.P50NS, r.failP99)

	// Sweep rows, matched by (nodes, load factor): a factor names the
	// same point of the sweep even when a capacity change moved its
	// offered load. A baseline row without a factor falls back to
	// matching (nodes, offered load).
	candRows := map[string]int{}
	for i, row := range cand.Rows {
		candRows[rowKey(row)] = i
		candRows[loadKey(row)] = i
	}
	matched := map[int]bool{}
	for _, row := range base.Rows {
		key := rowKey(row)
		ci, ok := candRows[key]
		if !ok {
			fmt.Fprintf(out, "FAIL  %s/row[%s]: tracked row missing from candidate\n", base.Name, key)
			failed = true
			continue
		}
		crow := cand.Rows[ci]
		check("row["+key+"].achieved", row.AchievedOpsPerSec, crow.AchievedOpsPerSec, r.failOps, true)
		check("row["+key+"].p99_ns", float64(row.P99NS), float64(crow.P99NS), r.failP99, false)
		matched[ci] = true
	}
	for i, row := range cand.Rows {
		if !matched[i] {
			fmt.Fprintf(out, "note  %s/row[%s]: new in candidate\n", base.Name, rowKey(row))
		}
	}

	// Per-op cost rows, matched by name. Virtual costs follow the p99
	// rule; wall costs follow the wall rule and only when both sides
	// carry one (committed baselines are virtual-only).
	candOps := map[string]experiments.OpCost{}
	for _, op := range cand.Ops {
		candOps[op.Op] = op
	}
	for _, op := range base.Ops {
		cop, ok := candOps[op.Op]
		if !ok {
			fmt.Fprintf(out, "FAIL  %s/op[%s]: tracked op missing from candidate\n", base.Name, op.Op)
			failed = true
			continue
		}
		check("op["+op.Op+"].virtual_ns", op.VirtualNS, cop.VirtualNS, r.failP99, false)
		if op.WallNS > 0 && cop.WallNS > 0 {
			check("op["+op.Op+"].wall_ns", op.WallNS, cop.WallNS, r.failWall, false)
		}
		delete(candOps, op.Op)
	}
	for name := range candOps {
		fmt.Fprintf(out, "note  %s/op[%s]: new in candidate\n", base.Name, name)
	}

	if failed {
		if adv {
			fmt.Fprintf(out, "ADVISORY %s: regressions above would fail, but this bench is advisory (wall-derived numbers are host-dependent)\n", base.Name)
			return 0
		}
		return 1
	}
	return 0
}

// rowKey names a sweep row by (nodes, load factor), or by (nodes, offered
// load) when the row records no factor.
func rowKey(row loadgen.Row) string {
	if row.LoadFactor == 0 {
		return loadKey(row)
	}
	return fmt.Sprintf("nodes=%d,factor=%g", row.Nodes, row.LoadFactor)
}

func loadKey(row loadgen.Row) string {
	return fmt.Sprintf("nodes=%d,load=%g", row.Nodes, row.OfferedLoad)
}
