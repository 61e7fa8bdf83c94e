package main

import (
	"io"
	"regexp"
	"testing"
)

// smokeConfig is the -smoke sizing, run in process from this directory.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: nominalSeconds, smoke: true, root: "..", out: t.TempDir(), log: io.Discard}
}

// TestContractMatchesTables holds BENCHMARK.json and the metric and
// workload tables in step.
func TestContractMatchesTables(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := c.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := c.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload and every ladder rung at smoke sizing,
// twice, and checks that each run is correct, prints exactly the
// metrics BENCHMARK.json declares under well-formed names, and that
// every exact metric is identical across the two runs.
func TestSmoke(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	checkNames := func(t *testing.T, res result, want []string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("incorrect run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("declared metric %s not printed", name)
			}
			if !wellFormed.MatchString(name) {
				t.Errorf("metric name %q is not of the form [A-Za-z0-9_.-]+", name)
			}
		}
	}
	var e2eNames, layerNames []string
	for _, m := range c.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range c.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	// Layer separation is demonstrated, not assumed: each transport's
	// workload leaves the other transport's layers untouched.
	idle := map[string][]string{
		"bulk-tcp":  {"via.parks_per_msg", "core.parks_per_msg"},
		"bulk-sv":   {"ktcp.parks_per_msg"},
		"repart-sv": {"ktcp.parks_per_msg"},
		"pingpong":  {"datacutter.parks_per_msg", "vizapp.parks_per_msg"},
	}
	busy := map[string]string{
		"bulk-tcp": "ktcp.parks_per_msg", "bulk-sv": "via.parks_per_msg",
		"repart-sv": "via.parks_per_msg", "pingpong": "ktcp.parks_per_msg",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			measured, err := runMeasured(w, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, measured, e2eNames)
			for name, m := range measured.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			var traced [2]result
			for i := range traced {
				if traced[i], err = runTraced(w, smokeConfig(t)); err != nil {
					t.Fatal(err)
				}
				checkNames(t, traced[i], layerNames)
			}
			for _, d := range perLayer {
				if a, b := traced[0].Metrics[d.name].Value, traced[1].Metrics[d.name].Value; d.exact && a != b {
					t.Errorf("exact metric %s differs between two runs: %v != %v", d.name, a, b)
				}
			}
			for _, name := range idle[w.name] {
				if v := traced[0].Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			if name, ok := busy[w.name]; ok && traced[0].Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, traced[0].Metrics[name].Value)
			}
		})
	}
}
