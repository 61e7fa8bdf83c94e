// Package repro's root benchmark harness: one benchmark per paper
// figure plus ablation benches for the design choices in DESIGN.md.
//
// Each figure benchmark regenerates the corresponding figure's series
// at reduced (Quick) repetition counts and reports its headline metric
// via b.ReportMetric; `go run ./cmd/hps figures` produces the full-scale
// tables. Simulated time is deterministic, so a single iteration is a
// complete, reproducible measurement. The pipeline figures build their
// Options inside the loop: a fresh QuickOptions starts with a cold
// pipeline cell cache, so every iteration measures real runs.
package repro_test

import (
	"math"
	"strconv"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/experiments"
	"hpsockets/internal/fault"
	"hpsockets/internal/netsim"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
	"hpsockets/internal/stats"
	"hpsockets/internal/vizapp"
)

func quick() experiments.Options { return experiments.QuickOptions() }

// BenchmarkFig4aLatency regenerates Figure 4(a) and reports the
// 4-byte one-way latencies (us).
func BenchmarkFig4aLatency(b *testing.B) {
	o := quick()
	for i := 0; i < b.N; i++ {
		experiments.Fig4aLatency(o)
	}
	b.ReportMetric(experiments.VIALatency(4, o.MicroIters).Micros(), "via_us")
	b.ReportMetric(experiments.SocketsLatency(core.KindSocketVIA, 4, o.MicroIters).Micros(), "socketvia_us")
	b.ReportMetric(experiments.SocketsLatency(core.KindTCP, 4, o.MicroIters).Micros(), "tcp_us")
}

// BenchmarkFig4bBandwidth regenerates Figure 4(b) and reports the
// peak bandwidths (Mbps).
func BenchmarkFig4bBandwidth(b *testing.B) {
	o := quick()
	for i := 0; i < b.N; i++ {
		experiments.Fig4bBandwidth(o)
	}
	b.ReportMetric(experiments.VIABandwidth(64*1024, o.MicroMsgs), "via_mbps")
	b.ReportMetric(experiments.SocketsBandwidth(core.KindSocketVIA, 64*1024, o.MicroMsgs), "socketvia_mbps")
	b.ReportMetric(experiments.SocketsBandwidth(core.KindTCP, 64*1024, o.MicroMsgs), "tcp_mbps")
}

// benchFig7 reports the latency improvement of repartitioned SocketVIA
// over TCP at the paper's highest TCP-feasible update guarantee.
func benchFig7(b *testing.B, compute bool) {
	var tcpUS, drUS float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7(quick(), compute)
		// Find the first target where TCP has a point.
		for xi := range t.X {
			if !math.IsNaN(t.Series[0].Y[xi]) {
				tcpUS, drUS = t.Series[0].Y[xi], t.Series[2].Y[xi]
				break
			}
		}
	}
	b.ReportMetric(tcpUS, "tcp_us")
	b.ReportMetric(drUS, "socketvia_dr_us")
	if drUS > 0 {
		b.ReportMetric(tcpUS/drUS, "improvement_x")
	}
}

// BenchmarkFig7aLatencyUnderUpdateGuarantee regenerates Figure 7(a).
func BenchmarkFig7aLatencyUnderUpdateGuarantee(b *testing.B) { benchFig7(b, false) }

// BenchmarkFig7bLatencyUnderUpdateGuarantee regenerates Figure 7(b)
// (with the 18 ns/byte computation).
func BenchmarkFig7bLatencyUnderUpdateGuarantee(b *testing.B) { benchFig7(b, true) }

// benchFig8 reports the update rates at the loosest latency guarantee.
func benchFig8(b *testing.B, compute bool) {
	var tcp, dr float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8(quick(), compute)
		tcp, dr = t.Series[0].Y[0], t.Series[2].Y[0]
	}
	b.ReportMetric(tcp, "tcp_ups")
	b.ReportMetric(dr, "socketvia_dr_ups")
}

// BenchmarkFig8aUpdatesUnderLatencyGuarantee regenerates Figure 8(a).
func BenchmarkFig8aUpdatesUnderLatencyGuarantee(b *testing.B) { benchFig8(b, false) }

// BenchmarkFig8bUpdatesUnderLatencyGuarantee regenerates Figure 8(b).
func BenchmarkFig8bUpdatesUnderLatencyGuarantee(b *testing.B) { benchFig8(b, true) }

// benchFig9 reports the response times at a 50/50 query mix with 64
// partitions.
func benchFig9(b *testing.B, compute bool) {
	var tcpMS, svMS float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9(quick(), compute)
		// Series order: sv noparts, sv 8, sv 64, tcp noparts, tcp 8, tcp 64.
		mid := len(t.X) / 2
		svMS, tcpMS = t.Series[2].Y[mid], t.Series[5].Y[mid]
	}
	b.ReportMetric(tcpMS, "tcp_ms")
	b.ReportMetric(svMS, "socketvia_ms")
}

// BenchmarkFig9aQueryMixResponse regenerates Figure 9(a).
func BenchmarkFig9aQueryMixResponse(b *testing.B) { benchFig9(b, false) }

// BenchmarkFig9bQueryMixResponse regenerates Figure 9(b).
func BenchmarkFig9bQueryMixResponse(b *testing.B) { benchFig9(b, true) }

// BenchmarkFig10RoundRobinReaction regenerates Figure 10 and reports
// the reaction-time ratio at heterogeneity factor 4.
func BenchmarkFig10RoundRobinReaction(b *testing.B) {
	o := quick()
	var sv, tcp float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig10(o)
		sv, tcp = t.Series[0].Y[1], t.Series[1].Y[1] // factor 4
	}
	b.ReportMetric(sv, "socketvia_us")
	b.ReportMetric(tcp, "tcp_us")
	if sv > 0 {
		b.ReportMetric(tcp/sv, "ratio_x")
	}
}

// BenchmarkFig11DemandDriven regenerates Figure 11 and reports the
// factor-8, 90%-probability execution times.
func BenchmarkFig11DemandDriven(b *testing.B) {
	o := quick()
	var sv, tcp float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11(o)
		last := len(t.X) - 1
		sv, tcp = t.Series[2].Y[last], t.Series[5].Y[last]
	}
	b.ReportMetric(sv/1000, "socketvia_ms")
	b.ReportMetric(tcp/1000, "tcp_ms")
}

// BenchmarkPerfectPipelining regenerates the Section 5.2.3 block-size
// sweep and reports efficiency at the paper's chosen blocks.
func BenchmarkPerfectPipelining(b *testing.B) {
	o := quick()
	var sv, tcp float64
	for i := 0; i < b.N; i++ {
		sv = experiments.PipelineEfficiency(o, core.KindSocketVIA, experiments.PipeliningBlock(core.KindSocketVIA))
		tcp = experiments.PipelineEfficiency(o, core.KindTCP, experiments.PipeliningBlock(core.KindTCP))
	}
	b.ReportMetric(sv, "socketvia_eff_2K")
	b.ReportMetric(tcp, "tcp_eff_16K")
}

// BenchmarkFaultRecovery (E15) regenerates the fault family and
// reports the loss-recovery overhead at a 1e-3 drop rate (ratio of
// completion times, 16 KB chunks) plus the failover re-dispatch count
// at the mid-run crash point.
func BenchmarkFaultRecovery(b *testing.B) {
	o := quick()
	var xfer, fo *stats.Table
	for i := 0; i < b.N; i++ {
		xfer = experiments.FigFaultTransfer(o)
		fo = experiments.FigFaultFailover(o)
	}
	last := len(xfer.X) - 1 // highest drop rate
	// Series order: sv 16k us, sv 16k redials, sv 256k us, sv 256k
	// redials, then the same four for tcp.
	b.ReportMetric(xfer.Series[0].Y[last]/xfer.Series[0].Y[0], "socketvia_loss_slowdown_x")
	b.ReportMetric(xfer.Series[4].Y[last]/xfer.Series[4].Y[0], "tcp_loss_slowdown_x")
	b.ReportMetric(xfer.Series[1].Y[last], "socketvia_redials")
	// Failover series: sv us, sv redispatched, tcp us, tcp redispatched.
	mid := len(fo.X) / 2
	b.ReportMetric(fo.Series[1].Y[mid], "socketvia_redispatched")
	b.ReportMetric(fo.Series[3].Y[mid], "tcp_redispatched")
}

// BenchmarkAblationEagerChunkSize (A2) sweeps the SocketVIA eager
// chunk size.
func BenchmarkAblationEagerChunkSize(b *testing.B) {
	for _, chunk := range []int{2048, 4096, 8192, 16384} {
		chunk := chunk
		b.Run(strconv.Itoa(chunk/1024)+"KB", func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = experiments.AblationEagerChunk(chunk, 64*1024, 100)
			}
			b.ReportMetric(mbps, "Mbps")
		})
	}
}

// BenchmarkAblationCredits (A1) sweeps the SocketVIA credit count.
func BenchmarkAblationCredits(b *testing.B) {
	for _, credits := range []int{2, 4, 8, 16, 32} {
		credits := credits
		b.Run(strconv.Itoa(credits), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = experiments.AblationCredits(credits, 64*1024, 100)
			}
			b.ReportMetric(mbps, "Mbps")
		})
	}
}

// BenchmarkAblationRendezvous (A6) compares eager SocketVIA with the
// zero-copy RDMA rendezvous path (the paper's future-work push model).
func BenchmarkAblationRendezvous(b *testing.B) {
	for _, mode := range []struct {
		name      string
		threshold int
	}{{"eager", 0}, {"zerocopy", 16 * 1024}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var mbps, cpu float64
			for i := 0; i < b.N; i++ {
				mbps, cpu = experiments.AblationRendezvous(mode.threshold, 64*1024, 100)
			}
			b.ReportMetric(mbps, "Mbps")
			b.ReportMetric(cpu*100, "sender_cpu_pct")
		})
	}
}

// BenchmarkAblationTCPMSS (A3) sweeps the kernel path's MSS.
func BenchmarkAblationTCPMSS(b *testing.B) {
	for _, mss := range []int{536, 1460, 4312, 8960} {
		mss := mss
		b.Run(strconv.Itoa(mss), func(b *testing.B) {
			var mbps float64
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				mbps, lat = experiments.AblationTCPMSS(mss, 64*1024, 100)
			}
			b.ReportMetric(mbps, "Mbps")
			b.ReportMetric(lat.Micros(), "latency_us")
		})
	}
}

// BenchmarkAblationTransparentCopies (A5) sweeps the pipeline's
// transparent copy count.
func BenchmarkAblationTransparentCopies(b *testing.B) {
	o := quick()
	for _, chains := range []int{1, 2, 3, 4} {
		chains := chains
		b.Run(strconv.Itoa(chains), func(b *testing.B) {
			var ups float64
			for i := 0; i < b.N; i++ {
				ups = experiments.AblationChains(o, core.KindSocketVIA, chains, 32*1024)
			}
			b.ReportMetric(ups, "updates_per_sec")
		})
	}
}

// BenchmarkAblationDemandWindow (A4) sweeps the demand-driven window.
func BenchmarkAblationDemandWindow(b *testing.B) {
	o := quick()
	for _, window := range []int{1, 2, 4, 8, 0} { // 0 = unbounded
		window := window
		b.Run(strconv.Itoa(window), func(b *testing.B) {
			var makespan sim.Time
			for i := 0; i < b.N; i++ {
				makespan = experiments.AblationDemandWindow(o, core.KindTCP, window)
			}
			b.ReportMetric(makespan.Millis(), "makespan_ms")
		})
	}
}

// Allocation budgets for the two headline micro-benchmarks, measured
// with testing.AllocsPerRun at the change that made VIA's NIC engines
// continuations, so a provider starts no process (the simulation is
// deterministic, so the counts are stable run to run).
// The guard fails when a change regresses either figure by more than
// 5% — re-baseline these consciously, with a CHANGES.md entry,
// never by bumping the number to silence the test.
const (
	fig4aAllocsBudget = 9830
	fig4bAllocsBudget = 26270
	allocsSlack       = 1.05
)

// TestFigureAllocsRegression is the allocation regression guard for
// the figure hot paths.
func TestFigureAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the full quick figure micro pair")
	}
	o := quick()
	for _, c := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"Fig4aLatency", fig4aAllocsBudget, func() { experiments.Fig4aLatency(o) }},
		{"Fig4bBandwidth", fig4bAllocsBudget, func() { experiments.Fig4bBandwidth(o) }},
	} {
		allocs := testing.AllocsPerRun(3, c.fn)
		limit := c.budget * allocsSlack
		if allocs > limit {
			t.Errorf("%s allocates %.0f per run, over the %.0f budget (+5%% slack = %.0f): an allocation regression in the kernel, queue hand-off or wire path",
				c.name, allocs, c.budget, limit)
		} else {
			t.Logf("%s: %.0f allocs per run (budget %.0f)", c.name, allocs, c.budget)
		}
	}
}

// TestProfileLedgerPins holds the park-ledger totals of four fixed
// workloads to exact values: a TCP and a SocketVIA pipeline, and a
// crash-restart recovery over each. Parks, wakes, same-instant wakes,
// hand-offs and ring hits are virtual-time counts, identical on every
// machine and every run, so any drift is a change in scheduler traffic
// that no timer could see. Re-pin a value only with a CHANGES.md entry
// that says why the traffic moved; never widen one into a range.
func TestProfileLedgerPins(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T) *profile.Ledger
		// parks, wakes, same-instant, hand-offs, ring hits
		want [5]uint64
	}{
		{"pipeline/tcp/b32768", pipelineLedger(core.KindTCP), [5]uint64{58858, 58858, 712, 55593, 115918}},
		{"pipeline/socketvia/b32768", pipelineLedger(core.KindSocketVIA), [5]uint64{45633, 45591, 6, 27070, 36262}},
		{"recovery/tcp/crash-restart", recoveryLedger(core.KindTCP), [5]uint64{3217, 3217, 2, 2884, 5382}},
		{"recovery/socketvia/crash-restart", recoveryLedger(core.KindSocketVIA), [5]uint64{3386, 3384, 0, 1703, 2277}},
	} {
		t.Run(c.name, func(t *testing.T) {
			led := c.run(t)
			parks, wakes, same, hand := led.Totals()
			if got := [5]uint64{parks, wakes, same, hand, led.RingHits()}; got != c.want {
				t.Errorf("parks/wakes/same-instant/hand-offs/ring hits = %v, want %v", got, c.want)
			}
		})
	}
}

// pipelineLedger runs two complete queries over a 4 MB image in 32 KB
// blocks with a park ledger attached.
func pipelineLedger(kind core.Kind) func(t *testing.T) *profile.Ledger {
	return func(t *testing.T) *profile.Ledger {
		cfg := vizapp.DefaultPipelineConfig(kind, 32<<10)
		cfg.ImageBytes = 4 << 20
		led := profile.NewLedger()
		cfg.Hook = led.Attach
		if res := vizapp.RunPipeline(cfg, []vizapp.Query{cfg.CompleteQuery(), cfg.CompleteQuery()}); res.Err != nil {
			t.Fatal(res.Err)
		}
		return led
	}
}

// recoveryLedger runs one producer feeding a checkpointed,
// exactly-once consumer whose node crashes mid-run and restarts 1 ms
// later, with a park ledger attached: the whole recovery arc of crash
// unwind, rejoin redial, resync fast-forward and ledger suppression.
func recoveryLedger(kind core.Kind) func(t *testing.T) *profile.Ledger {
	return func(t *testing.T) *profile.Ledger {
		const crashAt = 6 * sim.Millisecond
		prof := core.RecoveryProfile()
		k := sim.NewKernel()
		led := profile.NewLedger()
		led.Attach(k)
		cl := cluster.New(k, netsim.New(k, prof.Wire))
		cl.AddNode("n0", cluster.DefaultConfig())
		cl.AddNode("n1", cluster.DefaultConfig())
		fault.Install(cl, fault.Plan{
			Seed:     42,
			Crashes:  []fault.NodeCrash{{Node: "n1", At: crashAt}},
			Restarts: []fault.NodeRestart{{Node: "n1", At: crashAt + sim.Millisecond}},
		})
		g := datacutter.NewRuntime(cl, core.NewFabric(cl, kind, prof)).Instantiate(datacutter.GroupSpec{
			Filters: []datacutter.FilterSpec{
				{Name: "src", Placement: []string{"n0"},
					New: func(int) datacutter.Filter { return recoverySource{} }},
				{Name: "dst", Placement: []string{"n1"}, CheckpointEvery: 500 * sim.Microsecond,
					New: func(int) datacutter.Filter { return recoverySink{} }},
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
		g.Start(8)
		k.RunAll()
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		if restartedAt, recoveredAt := g.RecoveryOf("dst", 0); recoveredAt <= restartedAt {
			t.Fatal("consumer never recovered")
		}
		return led
	}
}

// recoverySource emits 8 blocks of 16 KB per unit of work.
type recoverySource struct{}

func (recoverySource) Init(*datacutter.Context) error { return nil }
func (recoverySource) Process(ctx *datacutter.Context) error {
	out := ctx.Output("s")
	for i := 0; i < 8; i++ {
		if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: 16 << 10}); err != nil {
			return err
		}
	}
	return out.EndOfWork(ctx.Proc())
}
func (recoverySource) Finalize(*datacutter.Context) error { return nil }

// recoverySink drains its input.
type recoverySink struct{}

func (recoverySink) Init(*datacutter.Context) error { return nil }
func (recoverySink) Process(ctx *datacutter.Context) error {
	in := ctx.Input("s")
	for {
		if _, ok := in.Read(ctx.Proc()); !ok {
			return nil
		}
	}
}
func (recoverySink) Finalize(*datacutter.Context) error { return nil }
