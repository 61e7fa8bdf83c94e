// Command benchmark is the repository's benchmark: six workloads over
// the simulated stack, timed from outside through the layers' public
// functions only, with every simulated result checked. See README.md
// in this directory for the workloads, the metrics and how to read a
// trace; BENCHMARK.json at the repository root is the contract.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --seed 1                           # every workload, both modes
//	bash benchmark/run.sh --workload bulk-tcp --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --agree                            # two full passes compared
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run (all runs each one in its own process, in both trace modes)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from (lbgrid's slow-node draws; the other inputs are fixed)")
	seconds := flag.Float64("seconds", nominalSeconds, "nominal host seconds of timed reps per run; scales the number of timed pairs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, observers detached; 1: per-layer metrics from the traced rep and the stack ladder")
	smoke := flag.Bool("smoke", false, "tiny sizing of every workload and ladder rung, two reps each (for the smoke test)")
	agree := flag.Bool("agree", false, "run every workload twice in both modes and compare the two passes against the bounds in BENCHMARK.json")
	flag.Parse()

	// run.sh starts the binary in the repository root.
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, root: ".", out: "benchmark/out", log: os.Stdout}
	var err error
	switch {
	case *agree:
		err = runAgree(cfg)
	case *workloadName == "all":
		_, err = runAll(cfg, os.Stdout)
	default:
		err = runOne(*workloadName, *trace, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but an output was wrong.
var errIncorrect = errors.New("outputs incorrect (see the FAIL lines)")

// runOne runs one workload in one mode in this process and prints the
// result object as the last line of standard output.
func runOne(name string, trace int, cfg runConfig) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res result
	var err error
	switch trace {
	case 0:
		res, err = runMeasured(w, cfg)
	case 1:
		res, err = runTraced(w, cfg)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintf(cfg.log, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// passResults is one pass over every workload: the result of each
// workload in each trace mode.
type passResults map[string][2]result

// runAll runs every workload in its own process (so peak RSS is the
// workload's own), first untraced then traced, copying the children's
// output through. It fails if any run failed or was incorrect.
func runAll(cfg runConfig, echo io.Writer) (passResults, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	results := passResults{}
	var failed []string
	for _, w := range workloads {
		var pair [2]result
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-trace", strconv.Itoa(trace),
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(&stdout, echo)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run() // Run waits for the child to exit
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if json.Unmarshal([]byte(lines[len(lines)-1]), &pair[trace]) != nil || runErr != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d)", w.name, trace))
			}
		}
		results[w.name] = pair
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return results, nil
}
