package experiments

import (
	"fmt"

	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/stats"
	"hpsockets/internal/vizapp"
)

// PipeliningBlock is the distribution block size at which perfect
// pipelining of communication and computation was observed, per
// transport (Section 5.2.3: 16 KB for TCP, 2 KB for SocketVIA).
func PipeliningBlock(kind core.Kind) int {
	if kind == core.KindSocketVIA {
		return 2 * 1024
	}
	return 16 * 1024
}

func (o Options) lbConfig(kind core.Kind, block int) vizapp.LBConfig {
	cfg := vizapp.DefaultLBConfig(kind, block)
	cfg.TotalBytes = o.LBBytes
	cfg.ComputePerByte = o.ComputePerByte
	cfg.Seed = o.Seed
	return cfg
}

// fig10Factors is the paper's heterogeneity-factor axis.
var fig10Factors = []float64{2, 4, 6, 8, 10}

// Fig10 reproduces Figure 10: the reaction time of the round-robin
// load balancer to a slow node, versus the factor of heterogeneity.
// Reaction time is the send-to-ack latency of the first block routed
// to the slow node: the time until the balancer could learn about its
// first mistake.
func Fig10(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 10: Load Balancer Reaction time to Heterogeneity (Round-Robin)",
		XLabel: "heterogeneity_factor",
		YLabel: "reaction time (us)",
		X:      fig10Factors,
	}
	kinds := []core.Kind{core.KindSocketVIA, core.KindTCP}
	nf := len(fig10Factors)
	ys := make([][]float64, len(kinds))
	for i := range ys {
		ys[i] = make([]float64, nf)
	}
	o.parMap(len(kinds)*nf, func(i int) {
		kind, factor := kinds[i/nf], fig10Factors[i%nf]
		cfg := o.lbConfig(kind, PipeliningBlock(kind))
		cfg.Policy = datacutter.RoundRobin
		cfg.RecordAcks = true
		cfg.SlowNode = 1
		cfg.SlowFactor = factor
		cfg.DataLocal = true
		res := vizapp.RunLoadBalancer(cfg)
		if res.Err != nil {
			panic("experiments: fig10 run failed: " + res.Err.Error())
		}
		ys[i/nf][i%nf] = res.ReactionTime(1).Micros()
	})
	for ki, kind := range kinds {
		t.AddSeries(fmt.Sprintf("%s_us", kind), ys[ki])
	}
	return t
}

// fig11Probs is the paper's probability-of-being-slow axis (percent).
var fig11Probs = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}

// fig11Factors are the heterogeneity factors of the Figure 11 legends.
var fig11Factors = []float64{2, 4, 8}

// Fig11 reproduces Figure 11: total execution time under demand-driven
// scheduling when one compute node is slow with a given probability
// per block.
func Fig11(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 11: Effect of Heterogeneity in the Cluster (Demand-Driven)",
		XLabel: "prob_slow_pct",
		YLabel: "execution time (us)",
		X:      fig11Probs,
	}
	kinds := []core.Kind{core.KindSocketVIA, core.KindTCP}
	np, nfac := len(fig11Probs), len(fig11Factors)
	ys := make([][]float64, len(kinds)*nfac)
	for i := range ys {
		ys[i] = make([]float64, np)
	}
	o.parMap(len(kinds)*nfac*np, func(i int) {
		series, pi := i/np, i%np
		kind, factor := kinds[series/nfac], fig11Factors[series%nfac]
		cfg := o.lbConfig(kind, PipeliningBlock(kind))
		cfg.Policy = datacutter.DemandDriven
		cfg.SlowNode = 2
		cfg.SlowFactor = factor
		cfg.SlowProb = fig11Probs[pi] / 100
		cfg.DataLocal = true
		res := vizapp.RunLoadBalancer(cfg)
		if res.Err != nil {
			panic("experiments: fig11 run failed: " + res.Err.Error())
		}
		ys[series][pi] = float64(res.Makespan) / 1000
	})
	for ki, kind := range kinds {
		for fi, factor := range fig11Factors {
			t.AddSeries(fmt.Sprintf("%s(%g)_us", kind, factor), ys[ki*nfac+fi])
		}
	}
	return t
}

// PerfectPipelining sweeps the block size of a one-producer,
// one-consumer pipeline with the 18 ns/byte computation and reports
// pipeline efficiency (compute time / makespan) per block size. The
// paper observed perfect pipelining at 16 KB for TCP and 2 KB for
// SocketVIA.
func PerfectPipelining(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Section 5.2.3: Perfect-pipelining block size sweep",
		XLabel: "block_bytes",
		YLabel: "pipeline efficiency (compute time / makespan)",
		X:      toF(o.BlockLadder),
	}
	kinds := []core.Kind{core.KindSocketVIA, core.KindTCP}
	nb := len(o.BlockLadder)
	ys := make([][]float64, len(kinds))
	for i := range ys {
		ys[i] = make([]float64, nb)
	}
	o.parMap(len(kinds)*nb, func(i int) {
		ys[i/nb][i%nb] = PipelineEfficiency(o, kinds[i/nb], o.BlockLadder[i%nb])
	})
	for ki, kind := range kinds {
		t.AddSeries(fmt.Sprintf("%s_eff", kind), ys[ki])
	}
	return t
}

// PipelineEfficiency measures compute-bound efficiency of streaming
// the workload through a single compute filter at one block size,
// under round-robin distribution (no ack traffic), as in the paper's
// Section 5.2.3 setting.
func PipelineEfficiency(o Options, kind core.Kind, block int) float64 {
	cfg := o.lbConfig(kind, block)
	cfg.Computes = 1
	cfg.Policy = datacutter.RoundRobin
	res := vizapp.RunLoadBalancer(cfg)
	if res.Err != nil {
		panic("experiments: pipelining run failed: " + res.Err.Error())
	}
	ideal := float64(o.LBBytes) * float64(o.ComputePerByte)
	return ideal / float64(res.Makespan)
}
