package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hpsockets/internal/fault"
	"hpsockets/internal/runner"
	"hpsockets/internal/scenario"
)

// Subcommand exit codes. Parse and semantic failures are distinct so
// tooling can tell "the file is gibberish" from "the file describes an
// impossible scenario" without grepping messages.
const (
	exitOK       = 0
	exitFailures = 1
	exitUsage    = 2
	exitParse    = 3
	exitSemantic = 4
)

// loadFile reads and parses one scenario file, mapping the error
// class to an exit code.
func loadFile(path string) (*scenario.File, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, exitUsage, err
	}
	f, err := scenario.Parse(path, data)
	if err != nil {
		var pe *scenario.ParseError
		if errors.As(err, &pe) {
			return nil, exitParse, err
		}
		var se *scenario.SemanticError
		if errors.As(err, &se) {
			return nil, exitSemantic, err
		}
		return nil, exitUsage, err
	}
	return f, exitOK, nil
}

// validateCmd implements `hps chaos validate <file>...`: parse and
// semantically check every file, reporting position-annotated errors.
// The exit code is the worst error class seen (semantic > parse).
func validateCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hps chaos validate", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hps chaos validate <scenario-file>...")
		fs.PrintDefaults()
	}
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitUsage
	}
	worst := exitOK
	for _, path := range fs.Args() {
		f, code, err := loadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code > worst {
				worst = code
			}
			continue
		}
		s := f.Scenario()
		fmt.Fprintf(stdout, "%s: ok (scenario %s, %d nodes, %d events, %d assertions)\n",
			path, f.Name, 1+s.Copies, events(s.Plan), len(f.Assertions))
	}
	return worst
}

// runCmd implements `hps chaos run <file>...`: compile each scenario,
// run it through the replay-checked harness, evaluate its assertions,
// and print results in argument order whatever the worker count.
func runCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hps chaos run", flag.ContinueOnError)
	var (
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers (1 = sequential)")
		shrink    = fs.Int("shrink", 0, "shrink budget in runs per failing scenario (0 = no shrinking)")
		telemetry = fs.String("telemetry", "", "directory for per-scenario telemetry exports")
		repro     = fs.String("repro", "", "directory for shrunk minimal reproducer files")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hps chaos run [flags] <scenario-file>...")
		fs.PrintDefaults()
	}
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitUsage
	}
	// A missing output directory is a usage error found before anything
	// runs, not after part of the report has been printed.
	for _, dir := range []string{*telemetry, *repro} {
		if dir == "" {
			continue
		}
		if info, err := os.Stat(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		} else if !info.IsDir() {
			fmt.Fprintf(os.Stderr, "%s: not a directory\n", dir)
			return exitUsage
		}
	}

	paths := fs.Args()
	files := make([]*scenario.File, len(paths))
	for i, path := range paths {
		f, code, err := loadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return code
		}
		files[i] = f
	}

	// Every scenario run is hermetic (its own kernel, cluster, fabric),
	// so the fleet parallelizes freely; results print in argument order.
	results := make([]scenario.Result, len(files))
	runner.Map(*workers, len(files), func(i int) {
		results[i] = scenario.RunFile(files[i])
	})

	failed := 0
	for i, r := range results {
		fmt.Fprint(stdout, r.Render())
		if *telemetry != "" {
			path := filepath.Join(*telemetry, r.File.Name+".telemetry.txt")
			if err := os.WriteFile(path, []byte(r.Report.Telemetry), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return exitUsage
			}
		}
		if r.OK() {
			continue
		}
		failed++
		if *shrink > 0 {
			min, runs := scenario.ShrinkFile(files[i], *shrink)
			out := min.Marshal()
			fmt.Fprintf(stdout, "minimal reproducer (%d shrink runs):\n%s", runs, out)
			if *repro != "" {
				path := filepath.Join(*repro, min.Name+".yaml")
				if err := os.WriteFile(path, out, 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return exitUsage
				}
				fmt.Fprintf(stdout, "reproducer written to %s\n", path)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "chaos: %d/%d scenarios failed\n", failed, len(files))
		return exitFailures
	}
	fmt.Fprintf(stdout, "chaos: %d scenarios ok (%s)\n", len(files),
		strings.Join(names(results), ", "))
	return exitOK
}

// events counts the timed entries of a plan: everything but the
// whole-run conditions, which a scenario file writes as links.
func events(p fault.Plan) int {
	n := len(p.Partitions) + len(p.Crashes) + len(p.Restarts) + len(p.Slowdowns)
	for _, c := range p.Conditions {
		if c.From != 0 || c.To != 0 {
			n++
		}
	}
	return n
}

func names(results []scenario.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.File.Name
	}
	return out
}
