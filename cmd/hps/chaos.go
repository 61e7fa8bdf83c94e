package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"hpsockets/internal/chaos"
	"hpsockets/internal/runner"
)

// chaosCmd implements `hps chaos`: sweep seeded fault-and-overload
// scenarios over the simulated DataCutter pipeline and check the
// harness invariants on each: full buffer accounting, no virtual-time
// deadlock, credit conservation at quiesce, byte-identical replay, and
// telemetry agreement. Any violation is reported with a shrunk minimal
// reproducer and the exit code is nonzero.
//
// Seeds are hermetic cells: each builds its own kernel, cluster and
// fabric, so the sweep parallelizes across workers with byte-identical
// output at any worker count.
//
// Besides the seed sweep, two subcommands drive the declarative
// scenario DSL (see internal/scenario and scenarios/): `chaos run`
// executes scenario files through the same invariant checker plus
// their own assertions, and `chaos validate` checks files without
// running them, with distinct exit codes for parse (3) and semantic
// (4) errors.
//
//	hps chaos -seeds 100            # check seeds 0..99
//	hps chaos -from 500 -seeds 250  # check seeds 500..749
//	hps chaos -seed 117 -v          # one scenario, full report
//	hps chaos run scenarios/*.yaml  # run the checked-in scenario library
//	hps chaos run -shrink 400 -repro /tmp bad.yaml
//	hps chaos validate scenarios/wan.yaml
func chaosCmd(args []string, stdout io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runCmd(args[1:], stdout)
		case "validate":
			return validateCmd(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("hps chaos", flag.ContinueOnError)
	var (
		from    = fs.Int64("from", 0, "first seed of the sweep")
		seeds   = fs.Int64("seeds", 100, "number of seeds to check")
		one     = fs.Int64("seed", -1, "check a single seed (overrides -from/-seeds)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers (1 = sequential)")
		shrink  = fs.Int("shrink", 400, "shrink budget in runs per failing seed (0 = no shrinking)")
		verbose = fs.Bool("v", false, "print every report, not just failures")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}

	lo, n := *from, *seeds
	if *one >= 0 {
		lo, n = *one, 1
	}
	if n <= 0 {
		fmt.Fprintln(os.Stderr, "chaos: -seeds must be positive")
		return exitUsage
	}

	reports := make([]chaos.Report, n)
	runner.Map(*workers, int(n), func(i int) {
		reports[i] = chaos.Check(chaos.Generate(lo + int64(i)))
	})

	// Reports print in canonical seed order whatever the worker count;
	// shrinking runs only now, sequentially, so the sweep output stays
	// deterministic and the run budget is spent on failures alone.
	failed := 0
	for i, r := range reports {
		seed := lo + int64(i)
		if r.OK() {
			if *verbose {
				fmt.Fprintf(stdout, "%s\n", r.Canonical())
			}
			continue
		}
		failed++
		fmt.Fprintf(stdout, "FAIL seed %d\n%s\n", seed, r.Canonical())
		if *shrink > 0 {
			min, runs := chaos.Shrink(r.Scenario, *shrink)
			rr := chaos.Run(min)
			fmt.Fprintf(stdout, "  minimal reproducer (%d shrink runs):\n%s\n", runs, rr.Canonical())
		}
	}

	if failed > 0 {
		fmt.Fprintf(stdout, "chaos: %d/%d seeds failed\n", failed, n)
		return exitFailures
	}
	fmt.Fprintf(stdout, "chaos: %d seeds ok (%d..%d)\n", n, lo, lo+n-1)
	return exitOK
}
