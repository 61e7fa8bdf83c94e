package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"hpsockets/internal/experiments"
	"hpsockets/internal/runner"
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	root    string // repository root: scenarios/ and BENCHMARK.json live here
	out     string // directory trace files are written to
	log     io.Writer
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally accumulates what the reps of one run checked. The first rep's
// digest is the reference: the simulator is deterministic, so a later
// rep that disagrees is a failed operation.
type tally struct {
	attempted, failed int64
	ref               string
	notes             []string
}

func (t *tally) add(r rep) {
	t.attempted += r.attempted + 1 // plus the digest comparison
	t.failed += r.failed
	t.notes = append(t.notes, r.notes...)
	switch {
	case t.ref == "":
		t.ref = r.digest
	case r.digest != t.ref:
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf("virtual-result digest %s differs from the first rep's %s", r.digest, t.ref))
	}
}

// workers is the parallel width W: every core, but no more than four,
// so the load always comes from one process using at most nproc
// workers.
func workers() int { return min(runtime.GOMAXPROCS(0), 4) }

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 3

// setUp generates the inputs from the seed and runs them once, untimed
// as a rep but timed as set-up, with a counters-only collector
// attached so delivered blocks and bytes are counted and checked.
func setUp(w workload, cfg runConfig, t *tally) (repFunc, rep, error) {
	run, err := w.build(cfg.seed, cfg.smoke, cfg.root)
	if err != nil {
		return nil, rep{}, err
	}
	r := run(&observers{}, 1)
	t.add(r)
	return run, r, nil
}

// parallelBatch runs the workload at W workers: its own grid with W
// workers, or W concurrent copies of the rep. It returns the messages
// the batch delivered.
func parallelBatch(w workload, run repFunc, width int, t *tally) int64 {
	if w.ownGrid {
		r := run(nil, width)
		t.add(r)
		return r.msgs
	}
	reps := make([]rep, width)
	runner.Map(width, width, func(i int) { reps[i] = run(nil, 1) })
	var msgs int64
	for _, r := range reps {
		t.add(r)
		msgs += r.msgs
	}
	return msgs
}

// pairsFor scales the workload's nominal pair count to the seconds
// asked for: at least one pair, and two in smoke sizing.
func pairsFor(w workload, cfg runConfig, seconds float64) int {
	if cfg.smoke {
		return 2
	}
	return max(1, int(math.Round(float64(w.pairs)*seconds/nominalSeconds)))
}

// timedPairs alternates one sequential rep and one parallel batch, with
// every observer detached. It returns the host seconds of each and the
// messages all of them delivered.
func timedPairs(w workload, run repFunc, pairs int, tr *tracer, t *tally) (seq, par []float64, msgs int64) {
	width := workers()
	for len(seq) < pairs {
		// Collect before each timing, so it starts from the same heap
		// state whatever the reps before it left behind; the cycles its
		// own allocation triggers stay inside its time.
		runtime.GC()
		id := tr.begin(w.name, "run", 0)
		at := hostNow()
		r := run(nil, 1)
		seq = append(seq, hostSince(at))
		tr.end(id)
		t.add(r)
		msgs += r.msgs

		runtime.GC()
		id = tr.begin(w.name, "run-parallel", 0)
		at = hostNow()
		n := parallelBatch(w, run, width, t)
		par = append(par, hostSince(at))
		tr.end(id)
		msgs += n
	}
	return seq, par, msgs
}

// parSpeedup is messages per host second at W workers over messages
// per host second at one. A batch of W copies carries W reps' work.
func parSpeedup(w workload, seqMedian, parMedian float64) float64 {
	if w.ownGrid {
		return seqMedian / parMedian
	}
	return float64(workers()) * seqMedian / parMedian
}

// paperErrPct is the worst relative error, in percent, of the five
// Section 5.1 numbers the paper states firmly against the simulator's:
// SocketVIA 9.5 us and TCP 47.5 us one-way latency, VIA 795, SocketVIA
// 763 and TCP 510 Mbps peak bandwidth. Raw VIA latency has no firm
// paper value and is left out. It is deterministic.
func paperErrPct() float64 {
	m := experiments.Micro(experiments.DefaultOptions())
	worst := 0.0
	for _, c := range []struct{ got, paper float64 }{
		{m.SocketVIALatency.Micros(), 9.5},
		{m.TCPLatency.Micros(), 47.5},
		{m.VIAPeak, 795},
		{m.SocketVIAPeak, 763},
		{m.TCPPeak, 510},
	} {
		worst = max(worst, math.Abs(c.got-c.paper)/c.paper*100)
	}
	return worst
}

// runMeasured is a --trace 0 run: the end-to-end metrics, with the
// ledger and the collector detached from every timed rep.
func runMeasured(w workload, cfg runConfig) (result, error) {
	var t tally
	var run repFunc
	var ref rep
	var setups []float64
	for i := 0; i < setupReps; i++ {
		at := hostNow()
		var err error
		if run, ref, err = setUp(w, cfg, &t); err != nil {
			return result{}, err
		}
		setups = append(setups, hostSince(at))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seq, par, msgs := timedPairs(w, run, pairsFor(w, cfg, cfg.seconds), nil, &t)
	runtime.ReadMemStats(&after)

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	seqSum, parSum := summarize(seq), summarize(par)
	values := map[string]float64{
		"setup_s":             median(setups),
		"msgs_per_host_s":     float64(ref.msgs) / seqSum.Median,
		"allocs_per_msg":      float64(after.Mallocs-before.Mallocs) / float64(msgs),
		"alloc_bytes_per_msg": float64(after.TotalAlloc-before.TotalAlloc) / float64(msgs),
		"peak_rss_mb":         rss,
		"par_speedup":         parSpeedup(w, seqSum.Median, parSum.Median),
		"paper_err_pct":       paperErrPct(),
	}
	fmt.Fprintf(cfg.log, "# %s seed=%d: %d messages per rep, W=%d, digest %s\n", w.name, cfg.seed, ref.msgs, workers(), t.ref)
	fmt.Fprintf(cfg.log, "# host_s of a sequential rep: %s\n", seqSum)
	fmt.Fprintf(cfg.log, "# host_s of a W-worker batch:  %s\n", parSum)
	fmt.Fprintf(cfg.log, "# host_s of a set-up:          %s\n", summarize(setups))
	fmt.Fprintf(cfg.log, "# (with this few reps no percentile above the median has ten samples beyond it)\n")
	return finish(cfg, endToEnd, values, &t), nil
}

// finish prints every metric by name and unit and assembles the result.
func finish(cfg runConfig, defs []metricDef, values map[string]float64, t *tally) result {
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(cfg.log, "%-40s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(cfg.log, "%-40s %16.6g share (%d of %d operations)\n", "fail_share", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	for _, n := range t.notes {
		fmt.Fprintf(cfg.log, "FAIL: %s\n", n)
	}
	return res
}

// traceFile is what a --trace 1 run writes to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Digest   string             `json:"digest"`
	Metrics  map[string]float64 `json:"metrics"`
	// Measured names the per-layer metrics this workload's traced rep
	// could measure; the others read 0.
	Measured []string     `json:"measured"`
	Ladder   ladderReport `json:"ladder"`
	Spans    []hostSpan   `json:"spans"`
}

// runTraced is a --trace 1 run: the per-layer metrics, from one traced
// rep (park ledger and span-collecting collector attached) and the
// stack ladder. A share of the time goes to untraced pairs first, so
// the tracing overhead and the runner metrics have a baseline.
func runTraced(w workload, cfg runConfig) (result, error) {
	var t tally
	tr := newTracer()
	values := map[string]float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	id := tr.begin(w.name, "setup", 0)
	run, _, err := setUp(w, cfg, &t)
	tr.end(id)
	if err != nil {
		return result{}, err
	}

	seq, par, _ := timedPairs(w, run, pairsFor(w, cfg, cfg.seconds/3), tr, &t)
	seqMedian, parMedian := median(seq), median(par)
	values["runner.host_s_w1"] = seqMedian
	values["runner.host_s_wn"] = parMedian
	values["runner.par_efficiency"] = parSpeedup(w, seqMedian, parMedian) / float64(workers())
	values["runner.cells"] = float64(workers())

	o := &observers{ledger: true, spans: true}
	runtime.GC() // as before every untraced timing
	id = tr.begin(w.name, "run-traced", 0)
	r := run(o, 1)
	tracedSecs := tr.end(id)
	id = tr.begin(w.name, "verify", 0)
	t.add(r)
	values["trace.overhead_pct"] = (tracedSecs - seqMedian) / seqMedian * 100
	measured := layerMetrics(o, r, values)
	tr.end(id)

	ladder := runLadder(tr, cfg, values, &t)
	viaShare(ladder, r, values)
	values["sim.anchor_mevents_per_s"] = anchorMeventsPerS(cfg.smoke)
	values["runtime.calib_ns"] = calibNS()
	if values["experiments.sim_digest_drift"], err = digestDrift(w.name, cfg, t.ref); err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)
	values["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	fmt.Fprintf(cfg.log, "# %s seed=%d traced: %d messages per rep, digest %s\n", w.name, cfg.seed, r.msgs, t.ref)
	res := finish(cfg, perLayer, values, &t)
	file := traceFile{
		Workload: w.name, Seed: cfg.seed, Digest: t.ref,
		Metrics: values, Measured: measured, Ladder: ladder, Spans: tr.spans,
	}
	return res, writeTrace(cfg, file)
}

// layerMetrics turns the traced rep's observers into the per-message
// layer metrics and reports which ones this workload measured.
func layerMetrics(o *observers, r rep, values map[string]float64) (measured []string) {
	for name, v := range r.layer {
		values[name] = v
		measured = append(measured, name)
	}
	msgs := float64(r.msgs)
	values["workload.msgs_per_mb"] = float64(r.sends) / (float64(r.payload) / (1 << 20))
	measured = append(measured, "workload.msgs_per_mb")
	if len(o.kernels) > 0 {
		set := func(name string, v float64) {
			values[name] = v
			measured = append(measured, name)
		}
		fired, spawned := o.events()
		pt := o.parkTotals()
		set("sim.events_per_msg", float64(fired)/msgs)
		set("sim.procs_spawned", float64(spawned))
		set("sim.parks_per_msg", float64(pt.parks)/msgs)
		set("sim.ring_hit_share", float64(pt.ringHits)/float64(fired))
		set("sim.handoff_share", float64(pt.handoffs)/float64(pt.parks))
		for _, l := range layers {
			set(l.metricStem+"parks_per_msg", float64(pt.layerParks[l.name])/msgs)
			set(l.metricStem+"parked_us_per_msg", pt.layerParked[l.name].Micros()/msgs)
		}
		set("netsim.frames_per_msg", float64(o.counter("netsim", "frames.out"))/msgs)
		set("netsim.wire_bytes_per_payload_byte", float64(o.counter("netsim", "bytes.out"))/float64(r.payload))
		set("ktcp.segments_per_msg", float64(o.counter("ktcp", "segments.out"))/msgs)
		crit := o.critPerUOW()
		for _, c := range critComponents {
			if us, ok := crit[c]; ok {
				set(c+".crit_us_per_uow", us)
			}
		}
	}
	sort.Strings(measured)
	return measured
}

// viaShare reads the ladder for this workload's message size: of the
// host time one DataCutter-over-SocketVIA stream hop costs at the
// workload's mean message size, the share VIA's per-byte slope
// accounts for. Only a workload whose traced rep parked in both via
// and datacutter runs that stack; the others read 0. Small messages
// (repart-sv) must show a lower share than large ones (bulk-sv): their
// host time is fixed cost, not bytes.
func viaShare(l ladderReport, r rep, values map[string]float64) {
	if values["via.parks_per_msg"] == 0 || values["datacutter.parks_per_msg"] == 0 {
		return
	}
	kb := float64(r.payload) / float64(r.sends) / 1024
	hop := l.Small["datacutter.sv"].HostNS + l.perKB("datacutter.sv")*(kb-float64(ladderSmall>>10))
	values["via.perkb_host_share"] = values["ladder.via.host_ns_per_kb"] * kb / hop
}

// digestDrift compares the run's virtual-result digest with
// golden.json (seed 1, full sizing): 1 when they differ. It is
// informational, so that a deliberate re-baseline of the simulated
// numbers is visible, not fatal; an absent entry reads 0.
func digestDrift(workload string, cfg runConfig, digest string) (float64, error) {
	if cfg.smoke || cfg.seed != 1 {
		return 0, nil
	}
	raw, err := os.ReadFile(filepath.Join(cfg.root, "benchmark", "golden.json"))
	if err != nil {
		return 0, fmt.Errorf("reading golden digests: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		return 0, fmt.Errorf("reading golden digests: %w", err)
	}
	if want, ok := golden[workload]; ok && want != digest {
		return 1, nil
	}
	return 0, nil
}

func writeTrace(cfg runConfig, file traceFile) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	path := filepath.Join(cfg.out, "trace-"+file.Workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
