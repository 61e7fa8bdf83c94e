package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json the stability harness reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readContract(root string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, fmt.Errorf("reading the contract: %w", err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("reading the contract: %w", err)
	}
	return c, nil
}

// runAgree is the stability harness: two full passes over the same
// tree, then per workload and end-to-end metric both values, how much
// worse the second is than the first as a share of the first, and
// PASS or FAIL against that metric's bound. Exact per-layer metrics
// (counts and virtual-time values) must be bit-equal.
func runAgree(cfg runConfig) error {
	c, err := readContract(cfg.root)
	if err != nil {
		return err
	}
	var passes [2]passResults
	for i := range passes {
		fmt.Fprintf(cfg.log, "# agree: pass %d of 2\n", i+1)
		if passes[i], err = runAll(cfg, io.Discard); err != nil {
			return err
		}
	}
	failures := 0
	fmt.Fprintf(cfg.log, "%-12s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "pass 1", "pass 2", "worse", "bound", "")
	for _, w := range workloads {
		a, b := passes[0][w.name], passes[1][w.name]
		for _, m := range c.EndToEnd {
			va, vb := a[0].Metrics[m.Name].Value, b[0].Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(cfg.log, "%-12s %-20s %14.6g %14.6g %+7.2f%% %5.1f%%  %s\n", w.name, m.Name, va, vb, worse*100, m.Bound*100, verdict)
		}
		unequal := 0
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			if va, vb := a[1].Metrics[d.name].Value, b[1].Metrics[d.name].Value; va != vb {
				unequal++
				fmt.Fprintf(cfg.log, "%-12s %-40s %v != %v  FAIL (exact metric)\n", w.name, d.name, va, vb)
			}
		}
		failures += unequal
		if unequal == 0 {
			fmt.Fprintf(cfg.log, "%-12s every exact per-layer metric is bit-equal between the passes  PASS\n", w.name)
		}
	}
	if failures > 0 {
		return fmt.Errorf("agree: %d comparisons failed", failures)
	}
	return nil
}
