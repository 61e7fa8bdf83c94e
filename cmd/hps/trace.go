package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
	"hpsockets/internal/vizapp"
)

// traceCmd implements `hps trace`: run one visualization-pipeline
// experiment cell with full hpsmon telemetry — metrics, causal spans,
// and cross-stream flow edges — and export the result as Chrome
// trace-event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev). Stdout gets a text flame summary, the
// metrics table, and the park ledger with the virtual-time critical
// path.
//
//	hps trace -out pipeline.json                     # defaults: socketvia, 32 KB blocks
//	hps trace -kind tcp -block 8192 -mode latency -out tcp.json
//
// The run is deterministic: the same flags always produce a
// byte-identical export.
func traceCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hps trace", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "socketvia", "transport: tcp or socketvia")
		block   = fs.Int("block", 32<<10, "distribution block size in bytes")
		mode    = fs.String("mode", "rate", "rate (pipelined complete updates) or latency (sequential partial updates)")
		queries = fs.Int("queries", 2, "number of queries to run")
		image   = fs.Int("image", 4<<20, "image bytes per complete update")
		compute = fs.Bool("compute", false, "apply the linear computation cost")
		out     = fs.String("out", "", "write Chrome trace-event JSON to this file (required)")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "trace: -out is required")
		return exitUsage
	}
	var k core.Kind
	switch *kind {
	case "tcp":
		k = core.KindTCP
	case "socketvia":
		k = core.KindSocketVIA
	default:
		fmt.Fprintf(os.Stderr, "trace: unknown kind %q\n", *kind)
		return exitUsage
	}

	cfg := vizapp.DefaultPipelineConfig(k, *block)
	cfg.ImageBytes = *image
	if *compute {
		cfg.ComputePerByte = 18 // ns/byte, the paper's linear cost
	}
	var qs []vizapp.Query
	switch *mode {
	case "rate":
		for i := 0; i < *queries; i++ {
			qs = append(qs, cfg.CompleteQuery())
		}
	case "latency":
		cfg.Sequential = true
		for i := 0; i < *queries; i++ {
			qs = append(qs, vizapp.PartialQuery())
		}
	default:
		fmt.Fprintf(os.Stderr, "trace: unknown mode %q\n", *mode)
		return exitUsage
	}

	cellName := fmt.Sprintf("trace/%s/%s/b%d", *kind, *mode, *block)
	col := hpsmon.NewCollector(cellName, hpsmon.Options{Spans: true})
	led := profile.NewLedger()
	cfg.Hook = func(k *sim.Kernel) {
		col.Attach(k)
		led.Attach(k)
	}

	res := vizapp.RunPipeline(cfg, qs)
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "trace: run failed: %v\n", res.Err)
		return exitFailures
	}

	if err := writeFile(*out, col.WriteChromeTrace); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return exitFailures
	}
	fmt.Fprintf(stdout, "%s: %d queries, finished at %v; trace written to %s\n",
		cellName, len(qs), res.End, filepath.Base(*out))

	fmt.Fprintln(stdout)
	if err := col.FlameSummary(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "trace: flame: %v\n", err)
		return exitFailures
	}
	fmt.Fprintln(stdout)
	if err := col.Registry().Render(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "trace: metrics: %v\n", err)
		return exitFailures
	}
	fmt.Fprintln(stdout)
	cell := &profile.Cell{Name: cellName, Ledger: led, Source: col}
	if err := cell.Render(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "trace: profile: %v\n", err)
		return exitFailures
	}
	return exitOK
}
