package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tiny is a smoke-sized run: every workload finishes in about a second.
func tiny(seed uint64) runCfg { return runCfg{seed: seed, scale: 0.02, setups: 1} }

// heldOutSeed was never used while the workloads' rates, limits and sizes
// were tuned; it checks that the schedule really depends on the seed.
const heldOutSeed = 8_675_309

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(tiny(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Fatalf("attempted %d failed %d (%v)", res.attempted, res.failed, res.notes)
			}
			for _, d := range endToEnd {
				v, ok := res.e2e[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
		})
	}
}

func TestSeedDeterminesSimulation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.run(tiny(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.run(tiny(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.schedule != b.schedule || a.sim != b.sim {
				t.Fatalf("same seed, different digests: %s/%s vs %s/%s", a.schedule, a.sim, b.schedule, b.sim)
			}
			for _, k := range virtualMetrics {
				if a.e2e[k] != b.e2e[k] {
					t.Errorf("%s: %v then %v with the same seed", k, a.e2e[k], b.e2e[k])
				}
			}
			c, err := w.run(tiny(heldOutSeed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.schedule == a.schedule || c.sim == a.sim {
				t.Fatalf("held-out seed %d reproduced seed 1's schedule or simulation", heldOutSeed)
			}
		})
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, notes, err := execute(w, tiny(2), true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("traced run not correct: %v", notes)
			}
			for _, d := range perLayer {
				if _, ok := out.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
		})
	}
}

// The checks must not be vacuous: one damaged byte in a value the
// checker reads back has to surface as a failed request.
func TestCheckerCatchesCorruption(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(3)
			cfg.corrupt = true
			res, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("corrupted read-back went unnoticed: %v", res.notes)
			}
		})
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Better     string  `json:"better"`
			Bound      float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, perLayer)
}
