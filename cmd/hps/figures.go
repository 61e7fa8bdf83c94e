package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hpsockets/internal/experiments"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/stats"
)

// figuresCmd implements `hps figures`: regenerate the paper's
// evaluation figures on the simulated testbed and print each as an
// aligned table.
//
//	hps figures              # every figure (full parameters; minutes)
//	hps figures -quick       # every figure at reduced repetition counts
//	hps figures -fig 7a      # one figure: 4a 4b 7a 7b 8a 8b 9a 9b 10 11 pp micro fault
func figuresCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hps figures", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 2,4a,4b,7a,7b,8a,8b,9a,9b,10,11,pp,micro,fault,overload,recovery or all")
		quick   = fs.Bool("quick", false, "reduced repetition counts")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0),
			"experiment cells run concurrently; any value emits byte-identical figures")
		telemetry = fs.String("telemetry", "",
			"write per-cell hpsmon metrics for the pipeline figures to this file (CSV with a .csv suffix, aligned tables otherwise)")
		prof = fs.String("profile", "",
			"write per-cell park ledgers and virtual-time critical paths for the pipeline figures to this file")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	o.Workers = *workers
	if *telemetry != "" {
		o.Telemetry = hpsmon.NewSet()
	}
	if *prof != "" {
		o.Profile = profile.NewSet()
	}
	render := func(t *stats.Table) {
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.Render())
		}
	}

	runners := []struct {
		name string
		run  func()
	}{
		{"micro", func() { printMicro(stdout, o) }},
		{"2", func() { render(experiments.Fig2Crossover(o)) }},
		{"4a", func() { render(experiments.Fig4aLatency(o)) }},
		{"4b", func() { render(experiments.Fig4bBandwidth(o)) }},
		{"7a", func() { render(experiments.Fig7(o, false)) }},
		{"7b", func() { render(experiments.Fig7(o, true)) }},
		{"8a", func() { render(experiments.Fig8(o, false)) }},
		{"8b", func() { render(experiments.Fig8(o, true)) }},
		{"9a", func() { render(experiments.Fig9(o, false)) }},
		{"9b", func() { render(experiments.Fig9(o, true)) }},
		{"10", func() { render(experiments.Fig10(o)) }},
		{"11", func() { render(experiments.Fig11(o)) }},
		{"pp", func() { render(experiments.PerfectPipelining(o)) }},
		{"fault", func() {
			render(experiments.FigFaultTransfer(o))
			render(experiments.FigFaultFailover(o))
		}},
		{"overload", func() { render(experiments.FigOverload(o)) }},
		{"recovery", func() {
			render(experiments.FigRecoveryTiming(o))
			render(experiments.FigRecoveryCheckpoint(o))
		}},
	}

	want := strings.ToLower(*fig)
	ran := false
	for _, r := range runners {
		// The fault, overload and recovery families run only when asked
		// for by name: they are not among the paper's figures, and
		// keeping them out of "all" leaves the headline output identical
		// to the fault-free tree.
		if want == r.name || (want == "all" && r.name != "fault" && r.name != "overload" && r.name != "recovery") {
			r.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		return exitUsage
	}
	if o.Telemetry != nil {
		export := o.Telemetry.Render
		if strings.HasSuffix(*telemetry, ".csv") {
			export = o.Telemetry.CSV
		}
		if err := writeFile(*telemetry, export); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			return exitFailures
		}
	}
	if o.Profile != nil {
		if err := writeFile(*prof, o.Profile.Render); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return exitFailures
		}
	}
	return exitOK
}

// writeFile creates path and renders into it, reporting the first of
// the render and close errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printMicro(w io.Writer, o experiments.Options) {
	m := experiments.Micro(o)
	fmt.Fprintln(w, "Section 5.1 micro-benchmark headline numbers (paper in parens):")
	fmt.Fprintf(w, "  VIA       latency %8.1f us  (paper: <9.5)    peak %6.0f Mbps (paper: 795)\n",
		m.VIALatency.Micros(), m.VIAPeak)
	fmt.Fprintf(w, "  SocketVIA latency %8.1f us  (paper: 9.5)     peak %6.0f Mbps (paper: 763)\n",
		m.SocketVIALatency.Micros(), m.SocketVIAPeak)
	fmt.Fprintf(w, "  TCP       latency %8.1f us  (paper: ~5x SV)  peak %6.0f Mbps (paper: 510)\n",
		m.TCPLatency.Micros(), m.TCPPeak)
	fmt.Fprintf(w, "  latency improvement: %.1fx   bandwidth improvement: %.0f%%\n\n",
		float64(m.TCPLatency)/float64(m.SocketVIALatency),
		(m.SocketVIAPeak/m.TCPPeak-1)*100)
}
