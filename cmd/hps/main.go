// Command hps drives the simulated testbed: it regenerates the paper's
// figures, sweeps fault scenarios, and exports one pipeline cell as a
// Chrome trace.
//
// Usage:
//
//	hps figures [flags]          # the paper's evaluation figures
//	hps chaos [flags]            # seeded fault-scenario sweep
//	hps chaos run|validate ...   # the declarative scenario DSL
//	hps trace -out F [flags]     # one pipeline cell, fully traced
//
// Every subcommand is deterministic: the same flags produce
// byte-identical output at any worker count. TestIdentity pins the
// output of a fixed set of invocations to testdata/identity.txt.
package main

import (
	"fmt"
	"io"
	"os"
)

// commands maps each subcommand name to its entry point. An entry
// point parses args with its own FlagSet, writes its report to stdout
// and diagnostics to stderr, and returns the process exit code.
var commands = map[string]func(args []string, stdout io.Writer) int{
	"figures": figuresCmd,
	"chaos":   chaosCmd,
	"trace":   traceCmd,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := commands[os.Args[1]]; ok {
			os.Exit(cmd(os.Args[2:], os.Stdout))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: hps figures|chaos|trace [flags]")
	os.Exit(exitUsage)
}
