// Command bench records a performance snapshot of the simulator in a
// BENCH_<date>.json file: ns/op, B/op and allocs/op of the figure
// micro-benchmarks (via testing.Benchmark, in process), plus the
// wall-clock time of the full quick figure set sequentially and at
// GOMAXPROCS workers, plus the wall-clock time of a whole-repo
// hpslint run (build excluded) so the analysis cost stays visible as
// the interprocedural engine grows. Each snapshot embeds the
// pre-optimization baseline so allocation regressions are visible
// without digging through git history.
//
// Usage:
//
//	bench                    # full snapshot, writes BENCH_<date>.json
//	bench -skip-figures      # benchmarks only (seconds instead of minutes)
//	bench -skip-lint         # skip the timed hpslint run
//	bench -out path.json     # explicit output path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/experiments"
	"hpsockets/internal/fault"
	"hpsockets/internal/netsim"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
	"hpsockets/internal/vizapp"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// FigureRun is one timed quick-figure-set run.
type FigureRun struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// LintRun is one timed whole-repo hpslint run (the binary is built
// first, outside the timer — the number is analysis cost, not
// compile cost).
type LintRun struct {
	Seconds  float64 `json:"seconds"`
	Findings int     `json:"findings"`
}

// Anchor is a fixed-size, deterministic, allocation-light kernel
// workload timed once per snapshot. Figure wall-clock times swing with
// the machine the snapshot ran on (BENCH_2026-08-06 and the first
// BENCH_2026-08-08 differ 1.9x on identical code — same allocs/op,
// different hardware class); the anchor pins the machine's single-core
// speed so snapshot-to-snapshot comparisons can separate "the code got
// slower" from "the machine got slower".
type Anchor struct {
	Events    int     `json:"events"`
	Seconds   float64 `json:"seconds"`
	MeventsPS float64 `json:"mevents_per_sec"`
}

// ProfileEdge is one park-ledger line of a profile workload: exact
// deterministic counters, so any drift between snapshots of the same
// code is a real behavior change, not noise.
type ProfileEdge struct {
	Edge        string  `json:"edge"`
	Parks       uint64  `json:"parks"`
	SameInstant uint64  `json:"same_instant"`
	Handoffs    uint64  `json:"handoffs"`
	ParkedUS    float64 `json:"parked_us"`
}

// ProfileRecord is the park-ledger totals of one fixed, deterministic
// profile workload (see runProfileWorkloads). Unlike the timed
// sections these are virtual-time/event counts: byte-identical
// across machines, exact across runs.
type ProfileRecord struct {
	Workload    string        `json:"workload"`
	Parks       uint64        `json:"parks"`
	Wakes       uint64        `json:"wakes"`
	SameInstant uint64        `json:"same_instant"`
	Handoffs    uint64        `json:"handoffs"`
	RingHits    uint64        `json:"ring_hits"`
	Edges       []ProfileEdge `json:"edges"`
}

// Snapshot is the whole file. The schema is documented in
// EXPERIMENTS.md ("BENCH snapshot schema").
type Snapshot struct {
	Date       string          `json:"date"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CPUModel   string          `json:"cpu_model,omitempty"`
	NumCPU     int             `json:"num_cpu"`
	Anchor     *Anchor         `json:"sanity_anchor,omitempty"`
	Benchmarks []Result        `json:"benchmarks"`
	Figures    []FigureRun     `json:"figures_quick,omitempty"`
	Hpslint    *LintRun        `json:"hpslint,omitempty"`
	Profile    []ProfileRecord `json:"profile,omitempty"`
	Baseline   Baseline        `json:"baseline"`
}

// Baseline pins the pre-optimization numbers (sequential kernel, no
// event/frame/segment pooling) measured on the same class of machine,
// so every snapshot carries its own point of comparison.
type Baseline struct {
	Description         string   `json:"description"`
	Benchmarks          []Result `json:"benchmarks"`
	FiguresQuickSeconds float64  `json:"figures_quick_seconds"`
}

var baseline = Baseline{
	Description: "before event/frame/segment pooling and the parallel runner (sequential, single worker)",
	Benchmarks: []Result{
		{Name: "Fig4aLatency", NsPerOp: 37120382, BytesPerOp: 7336304, AllocsPerOp: 147609},
		{Name: "Fig4bBandwidth", NsPerOp: 233678487, BytesPerOp: 38613720, AllocsPerOp: 1182100},
	},
	FiguresQuickSeconds: 225.4,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	skipFigures := flag.Bool("skip-figures", false, "skip the timed quick figure set (minutes)")
	skipLint := flag.Bool("skip-lint", false, "skip the timed whole-repo hpslint run")
	flag.Parse()

	snap := Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		Baseline:   baseline,
	}
	if *out == "" {
		*out = "BENCH_" + snap.Date + ".json"
	}

	fmt.Fprintln(os.Stderr, "bench: sanity anchor...")
	snap.Anchor = runAnchor()

	// The micro-benchmarks mirror the root package's BenchmarkFig4a/4b:
	// quick options, sequential, so the numbers are directly comparable
	// with the embedded baseline.
	benches := []struct {
		name string
		run  func(o experiments.Options)
	}{
		{"Fig4aLatency", func(o experiments.Options) { experiments.Fig4aLatency(o) }},
		{"Fig4bBandwidth", func(o experiments.Options) { experiments.Fig4bBandwidth(o) }},
	}
	for _, bm := range benches {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", bm.name)
		r := testing.Benchmark(func(b *testing.B) {
			o := experiments.QuickOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.run(o)
			}
		})
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        bm.name,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	// Kernel-level micro-benchmarks: the event queue alone (ladder
	// push/pop churn across every time regime), the doorbell path
	// (queue hand-off, one park per item), the two FIFO-resource
	// protocols under contention, the two waits of ktcp's kernel half
	// (a condition broadcast, a CPU charge), and the two costs a park can
	// have under baton passing: none (the parking process's own wake-up
	// is next) or one goroutine switch (another process's is).
	micro := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"EventQueueChurn", benchEventQueueChurn},
		{"QueueDoorbell", benchQueueDoorbell(procConsumer)},
		{"QueueDoorbellFunc", benchQueueDoorbell(funcConsumer)},
		{"SerializerUse", benchSerializerUse},
		{"ResourceUse", benchResourceUse(procUser)},
		{"ResourceUseFunc", benchResourceUse(funcUser)},
		{"CondWait", benchCondWait(procWaiter)},
		{"CondWaitFunc", benchCondWait(funcWaiter)},
		{"NodeOverhead", benchNodeOverhead(procCharger)},
		{"NodeOverheadFunc", benchNodeOverhead(funcCharger)},
		{"ParkSelf", benchParkSelf},
		{"ParkHandoff", benchParkHandoff},
	}
	for _, bm := range micro {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", bm.name)
		r := testing.Benchmark(bm.run)
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        bm.name,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	fmt.Fprintln(os.Stderr, "bench: profile workloads...")
	snap.Profile = runProfileWorkloads()

	if !*skipLint {
		fmt.Fprintln(os.Stderr, "bench: hpslint ./...")
		lint, err := timeHpslint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		snap.Hpslint = lint
	}

	if !*skipFigures {
		for _, workers := range figureWorkerCounts() {
			fmt.Fprintf(os.Stderr, "bench: quick figure set, %d worker(s)...\n", workers)
			o := experiments.QuickOptions()
			o.Workers = workers
			start := time.Now()
			runQuickFigures(o)
			snap.Figures = append(snap.Figures, FigureRun{
				Workers: workers,
				Seconds: time.Since(start).Seconds(),
			})
		}
	}

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(*out)
}

// timeHpslint builds cmd/hpslint to a scratch binary, then times one
// whole-repo -json run. Findings (exit 1) are measured, not fatal;
// only a load failure (exit 2) aborts the snapshot.
func timeHpslint() (*LintRun, error) {
	tmp, err := os.MkdirTemp("", "bench-hpslint-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "hpslint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hpslint")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building hpslint: %w", err)
	}

	cmd := exec.Command(bin, "-json", "./...")
	cmd.Stderr = os.Stderr
	start := time.Now()
	raw, err := cmd.Output()
	seconds := time.Since(start).Seconds()
	if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
		return nil, fmt.Errorf("running hpslint: %w", err)
	}
	var findings []json.RawMessage
	if err := json.Unmarshal(raw, &findings); err != nil {
		return nil, fmt.Errorf("parsing hpslint -json output: %w", err)
	}
	return &LintRun{Seconds: seconds, Findings: len(findings)}, nil
}

// figureWorkerCounts picks the timed worker counts: sequential always,
// and the machine's parallelism when it has any.
func figureWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// cpuModel reads the processor model from /proc/cpuinfo (Linux); an
// empty string on other platforms or read failure is recorded as an
// absent field, never an error.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// anchorEvents is the fixed size of the sanity-anchor workload: large
// enough to dominate timer noise, small enough to finish in well under
// a second on any machine class the snapshots have seen.
const anchorEvents = 2_000_000

// runAnchor times the fixed event-churn workload once.
func runAnchor() *Anchor {
	start := time.Now()
	eventChurn(anchorEvents)
	secs := time.Since(start).Seconds()
	return &Anchor{
		Events:    anchorEvents,
		Seconds:   secs,
		MeventsPS: float64(anchorEvents) / secs / 1e6,
	}
}

// eventChurn schedules and fires n events with a deterministic
// xorshift spread covering every ladder regime: same-instant ring
// hits, near-future bottom inserts, mid-range rung traffic and far
// top overflow, with a slice of timers armed-and-stopped to exercise
// cancellation absorption.
func eventChurn(n int) {
	k := sim.NewKernel()
	var rng uint64 = 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	scheduled := 0
	var reschedule func()
	reschedule = func() {
		for burst := 0; burst < 8 && scheduled < n; burst++ {
			var d sim.Time
			switch next() % 4 {
			case 0:
				d = 0
			case 1:
				d = sim.Time(next() % 1000)
			case 2:
				d = sim.Time(next() % 1_000_000)
			default:
				d = sim.Time(next() % 1_000_000_000)
			}
			scheduled++
			t := k.After(d, reschedule)
			if next()%8 == 0 {
				t.Stop()
			}
		}
	}
	reschedule()
	k.RunAll()
}

// benchEventQueueChurn measures the event queue alone: ladder and
// ring push/pop with mixed horizons, no process machinery.
func benchEventQueueChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eventChurn(100_000)
	}
}

// benchQueueDoorbell measures the doorbell path: a producer posting
// into a queue with a parked consumer, one park of each per item —
// the shape of every CQ post, NIC work queue ring and softnet
// hand-off in the stacks. With funcConsumer the consumer is a GetFunc
// continuation, the shape of the adapters' egress stages: the same
// events, and only the producer parks.
func benchQueueDoorbell(consume func(*sim.Kernel, *sim.Queue[int])) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel()
			q := sim.NewQueue[int](k, 0)
			const items = 10_000
			consume(k, q)
			k.Go("producer", func(p *sim.Proc) {
				for j := 0; j < items; j++ {
					q.Put(p, j)
					p.Sleep(1) // re-park the consumer so every put rings the doorbell
				}
				q.Close()
			})
			k.RunAll()
		}
	}
}

func procConsumer(k *sim.Kernel, q *sim.Queue[int]) {
	k.Go("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
}

func funcConsumer(k *sim.Kernel, q *sim.Queue[int]) {
	var got func(int, bool)
	got = func(_ int, ok bool) {
		if ok {
			q.GetFunc(got)
		}
	}
	k.After(0, func() { q.GetFunc(got) })
}

// benchSerializerUse measures the collapsed FIFO-resource protocol
// under contention: four processes sharing one serializer, one sleep
// per use.
func benchSerializerUse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		s := sim.NewSerializer(k)
		const uses = 10_000
		for pn := 0; pn < 4; pn++ {
			k.Go("user", func(p *sim.Proc) {
				for j := 0; j < uses/4; j++ {
					s.Use(p, 3, 2)
				}
			})
		}
		k.RunAll()
	}
}

// benchResourceUse measures the counted semaphore's full protocol
// under contention, the shape of VIA's DMA engine: four users sharing
// one unit, each use an admission by the previous user's release and a
// hold. With funcUser the users are UseFunc continuations, as the
// adapter's engines are: the same events and no parks.
func benchResourceUse(user func(k *sim.Kernel, r *sim.Resource, uses int)) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel()
			r := sim.NewResource(k, 1)
			const uses = 10_000
			for un := 0; un < 4; un++ {
				user(k, r, uses/4)
			}
			k.RunAll()
		}
	}
}

func procUser(k *sim.Kernel, r *sim.Resource, uses int) {
	k.Go("user", func(p *sim.Proc) {
		for j := 0; j < uses; j++ {
			r.Use(p, 1, 3)
		}
	})
}

func funcUser(k *sim.Kernel, r *sim.Resource, uses int) {
	var use func()
	use = func() {
		if uses--; uses >= 0 {
			r.UseFunc(1, 3, use)
		}
	}
	k.After(0, use)
}

// benchCondWait measures the broadcast wake-up, the shape of ktcp's
// transmit engines on the send condition: four waiters on one Cond,
// each woken by every broadcast and waiting again at once. With
// funcWaiter the waiters are WaitFunc continuations, as the engines
// are: the same events, and only the broadcaster parks.
func benchCondWait(waiter func(k *sim.Kernel, c *sim.Cond, waits int)) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel()
			c := sim.NewCond(k)
			const wakes = 10_000
			for wn := 0; wn < 4; wn++ {
				waiter(k, c, wakes/4)
			}
			k.Go("broadcaster", func(p *sim.Proc) {
				for j := 0; j < wakes/4; j++ {
					p.Sleep(1)
					c.Broadcast()
				}
			})
			k.RunAll()
		}
	}
}

func procWaiter(k *sim.Kernel, c *sim.Cond, waits int) {
	k.Go("waiter", func(p *sim.Proc) {
		for j := 0; j < waits; j++ {
			c.Wait(p)
		}
	})
}

func funcWaiter(k *sim.Kernel, c *sim.Cond, waits int) {
	var wait func()
	wait = func() {
		if waits--; waits >= 0 {
			c.WaitFunc(wait)
		}
	}
	k.After(0, wait)
}

// benchNodeOverhead measures the protocol CPU charge under contention,
// the shape of softnet beside the application's system calls: four
// users of a node's two CPUs. With funcCharger the users are
// OverheadFunc continuations, as softnet is: the same events and no
// parks.
func benchNodeOverhead(charger func(k *sim.Kernel, n *cluster.Node, charges int)) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel()
			n := cluster.New(k, netsim.New(k, netsim.CLANConfig())).AddNode("n0", cluster.DefaultConfig())
			const charges = 10_000
			for un := 0; un < 4; un++ {
				charger(k, n, charges/4)
			}
			k.RunAll()
		}
	}
}

func procCharger(k *sim.Kernel, n *cluster.Node, charges int) {
	k.Go("user", func(p *sim.Proc) {
		for j := 0; j < charges; j++ {
			n.Overhead(p, 3)
		}
	})
}

func funcCharger(k *sim.Kernel, n *cluster.Node, charges int) {
	ident := k.Identity("user")
	var charge func()
	charge = func() {
		if charges--; charges >= 0 {
			n.OverheadFunc(ident, 3, charge)
		}
	}
	k.After(0, charge)
}

// benchParkSelf measures the zero-switch park, mirroring
// internal/sim's BenchmarkParkSelf: one process sleeping in a loop, so
// every park finds its own wake-up next. One op is one park.
func benchParkSelf(b *testing.B) {
	k := sim.NewKernel()
	k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// benchParkHandoff measures the one-switch park, mirroring
// internal/sim's BenchmarkParkHandoff: two processes bouncing a token
// through a pair of queues, so every park ends by waking the other
// process. One op is one round trip, two parks.
func benchParkHandoff(b *testing.B) {
	k := sim.NewKernel()
	ping, pong := sim.NewQueue[int](k, 0), sim.NewQueue[int](k, 0)
	k.Go("echo", func(p *sim.Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(p, v)
		}
	})
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
		ping.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// runProfileWorkloads runs one small fixed pipeline per transport
// with a park ledger attached and records the exact per-edge
// scheduler counters. The workloads are deterministic and
// machine-independent, so `bench compare` can hold them to exact
// equality: an unexplained park-count increase is a scheduler-traffic
// regression no timer could see.
func runProfileWorkloads() []ProfileRecord {
	workloads := []struct {
		name string
		kind core.Kind
	}{
		{"pipeline/tcp/b32768", core.KindTCP},
		{"pipeline/socketvia/b32768", core.KindSocketVIA},
	}
	var out []ProfileRecord
	for _, wl := range workloads {
		cfg := vizapp.DefaultPipelineConfig(wl.kind, 32<<10)
		cfg.ImageBytes = 4 << 20
		led := profile.NewLedger()
		cfg.Hook = led.Attach
		queries := []vizapp.Query{cfg.CompleteQuery(), cfg.CompleteQuery()}
		res := vizapp.RunPipeline(cfg, queries)
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "bench: profile workload %s failed: %v\n", wl.name, res.Err)
			os.Exit(1)
		}
		out = append(out, ledgerRecord(wl.name, led))
	}
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		out = append(out, runRecoveryProfile(kind))
	}
	return out
}

// ledgerRecord folds one workload's park ledger into a ProfileRecord.
func ledgerRecord(name string, led *profile.Ledger) ProfileRecord {
	parks, wakes, same, hand := led.Totals()
	rec := ProfileRecord{
		Workload:    name,
		Parks:       parks,
		Wakes:       wakes,
		SameInstant: same,
		Handoffs:    hand,
		RingHits:    led.RingHits(),
	}
	for _, e := range led.Edges() {
		rec.Edges = append(rec.Edges, ProfileEdge{
			Edge:        e.Edge,
			Parks:       e.Parks,
			SameInstant: e.SameInstant,
			Handoffs:    e.Handoffs,
			ParkedUS:    e.Parked.Micros(),
		})
	}
	return rec
}

// runRecoveryProfile runs the fixed crash-restart recovery workload
// with a park ledger attached: one producer feeding a checkpointed,
// exactly-once consumer whose node crashes mid-run and restarts 1 ms
// later. The counters pin the scheduler traffic of the whole recovery
// arc — crash unwind, rejoin redial, resync fast-forward and ledger
// suppression — so `bench compare` catches any drift in the recovery
// path's behavior, not just its timing.
func runRecoveryProfile(kind core.Kind) ProfileRecord {
	const (
		uows    = 8
		perUOW  = 8
		block   = 16 << 10
		crashAt = 6 * sim.Millisecond
	)
	prof := core.RecoveryProfile()
	k := sim.NewKernel()
	led := profile.NewLedger()
	led.Attach(k)
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	cl.AddNode("n0", cluster.DefaultConfig())
	cl.AddNode("n1", cluster.DefaultConfig())
	fault.Install(cl, fault.Plan{
		Seed:     42,
		Crashes:  []fault.NodeCrash{{Node: "n1", At: crashAt}},
		Restarts: []fault.NodeRestart{{Node: "n1", At: crashAt + sim.Millisecond}},
	})
	fab := core.NewFabric(cl, kind, prof)
	g := datacutter.NewRuntime(cl, fab).Instantiate(datacutter.GroupSpec{
		Filters: []datacutter.FilterSpec{
			{Name: "src", Placement: []string{"n0"},
				New: func(int) datacutter.Filter { return benchRecoverySource{} }},
			{Name: "dst", Placement: []string{"n1"}, CheckpointEvery: 500 * sim.Microsecond,
				New: func(int) datacutter.Filter { return benchRecoverySink{} }},
		},
		Streams: []datacutter.StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Policy:         datacutter.DemandDriven,
			MaxUnacked:     4,
			OpTimeout:      2 * sim.Millisecond,
			RedialAttempts: 8,
			RedialSeed:     59,
			ExactlyOnce:    true,
		}},
	})
	g.Start(uows)
	k.RunAll()
	if err := g.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: recovery profile workload (%s) failed: %v\n", kind, err)
		os.Exit(1)
	}
	if restartedAt, recoveredAt := g.RecoveryOf("dst", 0); recoveredAt <= restartedAt {
		fmt.Fprintf(os.Stderr, "bench: recovery profile workload (%s): consumer never recovered\n", kind)
		os.Exit(1)
	}
	return ledgerRecord(fmt.Sprintf("recovery/%s/crash-restart", kind), led)
}

// benchRecoverySource emits the fixed recovery workload: 8 blocks of
// 16 KB per unit of work.
type benchRecoverySource struct{}

func (benchRecoverySource) Init(*datacutter.Context) error { return nil }
func (benchRecoverySource) Process(ctx *datacutter.Context) error {
	out := ctx.Output("s")
	for i := 0; i < 8; i++ {
		if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: 16 << 10}); err != nil {
			return err
		}
	}
	return out.EndOfWork(ctx.Proc())
}
func (benchRecoverySource) Finalize(*datacutter.Context) error { return nil }

// benchRecoverySink drains its input.
type benchRecoverySink struct{}

func (benchRecoverySink) Init(*datacutter.Context) error { return nil }
func (benchRecoverySink) Process(ctx *datacutter.Context) error {
	in := ctx.Input("s")
	for {
		if _, ok := in.Read(ctx.Proc()); !ok {
			return nil
		}
	}
}
func (benchRecoverySink) Finalize(*datacutter.Context) error { return nil }

// runQuickFigures regenerates the same figure set as `figures -quick`
// (every paper figure; the fault family is opt-in there and timed
// figure runs match that default), discarding the tables. Pass a
// fresh QuickOptions per timed run: its pipeline cell cache starts
// cold, as a fresh `figures` process would.
func runQuickFigures(o experiments.Options) {
	experiments.Micro(o)
	experiments.Fig2Crossover(o)
	experiments.Fig4aLatency(o)
	experiments.Fig4bBandwidth(o)
	experiments.Fig7(o, false)
	experiments.Fig7(o, true)
	experiments.Fig8(o, false)
	experiments.Fig8(o, true)
	experiments.Fig9(o, false)
	experiments.Fig9(o, true)
	experiments.Fig10(o)
	experiments.Fig11(o)
	experiments.PerfectPipelining(o)
}
