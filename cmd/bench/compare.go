package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// compareOpts holds the noise thresholds of one comparison.
// Allocation and byte counts are near-exact per op; profile counters
// are exact virtual-time quantities and tolerate no drift at all.
// Timed quantities (ns/op, figure seconds) swing with machine load by
// more than any threshold worth having, even scaled by the sanity
// anchor, so they are printed as notes and never gated: timed claims
// go through benchmark/run.sh, which pairs runs.
type compareOpts struct {
	allocs float64 // relative threshold for allocs/op
	bytes  float64 // relative threshold for B/op
}

// runCompare implements `bench compare [flags] old.json new.json`: it
// diffs two BENCH snapshots and reports every regression beyond the
// noise thresholds. Exit status: 0 clean, 1 regressions found, 2
// usage or load error. The report depends only on the two files and
// the flags, so it is byte-identical run-to-run.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	opts := compareOpts{}
	fs.Float64Var(&opts.allocs, "allocs", 0.01,
		"relative regression threshold for allocs/op")
	fs.Float64Var(&opts.bytes, "bytes", 0.05,
		"relative regression threshold for B/op")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [flags] old.json new.json")
		return 2
	}
	oldSnap, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	newSnap, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	c := &comparison{opts: opts, out: os.Stdout}
	c.run(oldSnap, newSnap)
	if c.regressions > 0 {
		fmt.Fprintf(c.out, "FAIL: %d regression(s)\n", c.regressions)
		return 1
	}
	fmt.Fprintf(c.out, "OK: %d check(s), no regressions\n", c.checks)
	return 0
}

func loadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type comparison struct {
	opts        compareOpts
	out         *os.File
	checks      int
	regressions int
}

// check records one compared quantity.
func (c *comparison) check(name string, oldV, newV, threshold float64) {
	c.checks++
	var rel float64
	switch {
	case oldV == 0 && newV == 0:
		rel = 0
	case oldV == 0:
		rel = math.Inf(1)
	default:
		rel = newV/oldV - 1
	}
	verdict := "ok        "
	if rel > threshold {
		verdict = "REGRESSION"
		c.regressions++
	}
	fmt.Fprintf(c.out, "%s %-44s %14.6g -> %-14.6g %+7.2f%% (limit %+.2f%%)\n",
		verdict, name, oldV, newV, 100*rel, 100*threshold)
}

func (c *comparison) note(format string, args ...any) {
	fmt.Fprintf(c.out, "note       "+format+"\n", args...)
}

// timed prints a timed quantity, which is not gated (see compareOpts).
func (c *comparison) timed(name string, oldV, newV float64) {
	c.note("%-44s %14.6g -> %-14.6g (timed)", name, oldV, newV)
}

func (c *comparison) run(oldSnap, newSnap *Snapshot) {
	if oldSnap.Anchor != nil && newSnap.Anchor != nil {
		c.timed("anchor Mevents/s", oldSnap.Anchor.MeventsPS, newSnap.Anchor.MeventsPS)
	}

	newBench := make(map[string]Result, len(newSnap.Benchmarks))
	for _, r := range newSnap.Benchmarks {
		newBench[r.Name] = r
	}
	for _, o := range oldSnap.Benchmarks {
		n, ok := newBench[o.Name]
		if !ok {
			c.note("benchmark %s missing from new snapshot", o.Name)
			continue
		}
		c.timed("bench/"+o.Name+" ns/op", float64(o.NsPerOp), float64(n.NsPerOp))
		c.check("bench/"+o.Name+" B/op", float64(o.BytesPerOp), float64(n.BytesPerOp), c.opts.bytes)
		c.check("bench/"+o.Name+" allocs/op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), c.opts.allocs)
	}

	newFig := make(map[int]FigureRun, len(newSnap.Figures))
	for _, f := range newSnap.Figures {
		newFig[f.Workers] = f
	}
	for _, o := range oldSnap.Figures {
		n, ok := newFig[o.Workers]
		if !ok {
			c.note("figures_quick workers=%d missing from new snapshot", o.Workers)
			continue
		}
		c.timed(fmt.Sprintf("figures_quick/workers=%d seconds", o.Workers), o.Seconds, n.Seconds)
	}

	if oldSnap.Hpslint != nil && newSnap.Hpslint != nil {
		c.check("hpslint findings",
			float64(oldSnap.Hpslint.Findings), float64(newSnap.Hpslint.Findings), 0)
	}

	newProf := make(map[string]ProfileRecord, len(newSnap.Profile))
	for _, p := range newSnap.Profile {
		newProf[p.Workload] = p
	}
	for _, o := range oldSnap.Profile {
		n, ok := newProf[o.Workload]
		if !ok {
			c.note("profile workload %s missing from new snapshot", o.Workload)
			continue
		}
		// Profile counters are exact deterministic quantities: any
		// increase in scheduler traffic is a regression (threshold 0);
		// decreases are the improvements the continuation-passing work
		// is after.
		c.check("profile/"+o.Workload+" parks", float64(o.Parks), float64(n.Parks), 0)
		c.check("profile/"+o.Workload+" same-instant", float64(o.SameInstant), float64(n.SameInstant), 0)
		c.check("profile/"+o.Workload+" handoffs", float64(o.Handoffs), float64(n.Handoffs), 0)
		c.check("profile/"+o.Workload+" ring-hits", float64(o.RingHits), float64(n.RingHits), 0)
		newEdges := make(map[string]ProfileEdge, len(n.Edges))
		for _, e := range n.Edges {
			newEdges[e.Edge] = e
		}
		for _, oe := range o.Edges {
			ne, ok := newEdges[oe.Edge]
			if !ok {
				c.note("profile/%s edge %s gone (had %d parks)", o.Workload, oe.Edge, oe.Parks)
				continue
			}
			if ne.Parks != oe.Parks {
				c.note("profile/%s edge %s parks %d -> %d", o.Workload, oe.Edge, oe.Parks, ne.Parks)
			}
		}
	}
	if len(oldSnap.Profile) == 0 {
		c.note("old snapshot has no profile section; profile checks skipped")
	}
}
