package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// td points a fixture name at cmd/benchdiff/testdata.
func td(name string) string { return filepath.Join("testdata", name) }

// runDiff drives run() exactly as main does and returns exit code plus
// combined output.
func runDiff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestPassAndNewOpsAreNotRegressions(t *testing.T) {
	code, out := runDiff(t, td("baseline.json"), td("cand_pass.json"))
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "op[wbr-64]: new in candidate") {
		t.Fatalf("new candidate op not reported:\n%s", out)
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "WARN") {
		t.Fatalf("clean improvement flagged:\n%s", out)
	}
}

func TestWarnBandPassesWithWarning(t *testing.T) {
	code, out := runDiff(t, td("baseline.json"), td("cand_warn.json"))
	if code != 0 {
		t.Fatalf("warn-band regression should pass, exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "WARN  fabric/p99_ns") {
		t.Fatalf("p99 inside warn band not warned:\n%s", out)
	}
	if !strings.Contains(out, "WARN  fabric/op[wbr-16].virtual_ns") {
		t.Fatalf("op virtual cost inside warn band not warned:\n%s", out)
	}
}

func TestRegressionFails(t *testing.T) {
	code, out := runDiff(t, td("baseline.json"), td("cand_fail.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL  fabric/ops_per_sec") {
		t.Fatalf("throughput regression not failed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  fabric/p99_ns") {
		t.Fatalf("p99 regression not failed:\n%s", out)
	}
}

func TestMissingTrackedOpFails(t *testing.T) {
	code, out := runDiff(t, td("baseline.json"), td("cand_missing_op.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL  fabric/op[wbr-16]: tracked op missing") {
		t.Fatalf("missing tracked op not failed:\n%s", out)
	}
}

func TestWallRuleOnlyWhenBothSidesCarryIt(t *testing.T) {
	// Both sides carry wall_ns: the wall rule applies and a 28% wall
	// regression fails even though virtual costs are identical.
	code, out := runDiff(t, td("baseline_wall.json"), td("cand_wall_fail.json"))
	if code != 1 {
		t.Fatalf("wall regression with both sides armed: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL  fabric/op[read-hit].wall_ns") {
		t.Fatalf("wall regression not failed:\n%s", out)
	}

	// Candidate has no wall numbers (the committed-artifact shape): the
	// wall rule must not fire at all.
	code, out = runDiff(t, td("baseline_wall.json"), td("cand_wall_absent.json"))
	if code != 0 {
		t.Fatalf("virtual-only candidate against wall baseline: exit %d, want 0:\n%s", code, out)
	}
	if strings.Contains(out, "wall_ns") {
		t.Fatalf("wall rule fired without both sides carrying wall_ns:\n%s", out)
	}
}

func TestMalformedArtifactRefusedNotCompared(t *testing.T) {
	// A zeroed candidate must be refused (exit 2), never "compared" —
	// otherwise a broken bench writer reads as a clean run.
	code, out := runDiff(t, td("baseline.json"), td("malformed.json"))
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "refusing candidate") {
		t.Fatalf("refusal not reported:\n%s", out)
	}

	// Same for a baseline, and for unparsable JSON.
	if code, _ := runDiff(t, td("malformed.json"), td("cand_pass.json")); code != 2 {
		t.Fatalf("malformed baseline: exit %d, want 2", code)
	}
	garbage := filepath.Join(t.TempDir(), "BENCH_garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runDiff(t, td("baseline.json"), garbage); code != 2 {
		t.Fatalf("unparsable candidate: exit %d, want 2:\n%s", code, out)
	}
}

func TestMissingSweepRowFails(t *testing.T) {
	code, out := runDiff(t, td("rows_base.json"), td("rows_cand_missing_row.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "row[nodes=8,load=400000]: tracked row missing") {
		t.Fatalf("missing sweep row not failed:\n%s", out)
	}
}

// A capacity gain moves every offered load of a sweep; rows that record
// their load factor still pair up with the baseline's.
func TestSweepRowsMatchByLoadFactor(t *testing.T) {
	code, out := runDiff(t, td("rows_factor_base.json"), td("rows_factor_cand.json"))
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{
		"row[nodes=2,factor=0.5].achieved: baseline 99000 candidate 111000",
		"row[nodes=8,factor=0.5].p99_ns: baseline 9000 candidate 8800",
		"row[nodes=8,factor=0.8]: new in candidate",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "missing") {
		t.Fatalf("factor-keyed rows reported missing:\n%s", out)
	}

	// Without factors on either side the same pair cannot be matched:
	// the offered loads differ.
	code, out = runDiff(t, td("rows_base.json"), td("rows_factor_cand.json"))
	if code != 1 || !strings.Contains(out, "row[nodes=2,load=100000]: tracked row missing") {
		t.Fatalf("factorless baseline against moved loads: exit %d:\n%s", code, out)
	}
}

func TestAdvisoryBenchReportsButNeverFails(t *testing.T) {
	code, out := runDiff(t, "-advisory", "fabric,redisrack",
		td("baseline.json"), td("cand_fail.json"))
	if code != 0 {
		t.Fatalf("advisory bench set exit %d, want 0:\n%s", code, out)
	}
	// The regressions must still be visible — advisory mutes the exit
	// code, not the report.
	if !strings.Contains(out, "FAIL  fabric/ops_per_sec") {
		t.Fatalf("advisory bench regression not reported:\n%s", out)
	}
	if !strings.Contains(out, "ADVISORY fabric") {
		t.Fatalf("advisory downgrade not announced:\n%s", out)
	}
}

func TestDirModePairsEveryBaseline(t *testing.T) {
	baseDir := t.TempDir()
	candDir := t.TempDir()
	cp := func(src, dstDir, dstName string) {
		t.Helper()
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, dstName), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cp(td("baseline.json"), baseDir, "BENCH_fabric.json")
	cp(td("rows_base.json"), baseDir, "BENCH_redisscale.json")
	cp(td("cand_pass.json"), candDir, "BENCH_fabric.json")
	cp(td("rows_base.json"), candDir, "BENCH_redisscale.json")

	code, out := runDiff(t, "-baseline-dir", baseDir, "-candidate-dir", candDir)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, name := range []string{"fabric/ops_per_sec", "redisscale/ops_per_sec"} {
		if !strings.Contains(out, name) {
			t.Fatalf("dir mode skipped %s:\n%s", name, out)
		}
	}

	// One regressed candidate in the set fails the whole run.
	cp(td("cand_fail.json"), candDir, "BENCH_fabric.json")
	if code, out := runDiff(t, "-baseline-dir", baseDir, "-candidate-dir", candDir); code != 1 {
		t.Fatalf("regressed member of dir set: exit %d, want 1:\n%s", code, out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	if code, _ := runDiff(t); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code, _ := runDiff(t, td("baseline.json")); code != 2 {
		t.Fatalf("one positional: exit %d, want 2", code)
	}
	if code, _ := runDiff(t, "-baseline-dir", t.TempDir(), "-candidate-dir", t.TempDir()); code != 2 {
		t.Fatalf("empty baseline dir: exit %d, want 2", code)
	}
}
