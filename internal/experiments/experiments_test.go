package experiments

import (
	"math"
	"testing"

	"hpsockets/internal/core"
	"hpsockets/internal/sim"
)

// These tests assert the paper's qualitative results ("who wins, by
// roughly what factor, where crossovers fall") at reduced scale;
// `hps figures` regenerates the full-scale tables.

func TestMicroHeadlineBands(t *testing.T) {
	o := QuickOptions()
	m := Micro(o)
	if m.SocketVIALatency < 9*sim.Microsecond || m.SocketVIALatency > 11*sim.Microsecond {
		t.Errorf("SocketVIA latency = %v, want ~9.5 us", m.SocketVIALatency)
	}
	if m.VIALatency >= m.SocketVIALatency {
		t.Errorf("VIA latency %v !< SocketVIA %v", m.VIALatency, m.SocketVIALatency)
	}
	if r := float64(m.TCPLatency) / float64(m.SocketVIALatency); r < 4 || r > 6 {
		t.Errorf("TCP/SocketVIA latency ratio = %.2f, want ~5", r)
	}
	if m.SocketVIAPeak < 730 || m.SocketVIAPeak > 800 {
		t.Errorf("SocketVIA peak = %.0f Mbps, want ~763", m.SocketVIAPeak)
	}
	if m.TCPPeak < 470 || m.TCPPeak > 540 {
		t.Errorf("TCP peak = %.0f Mbps, want ~510", m.TCPPeak)
	}
	if imp := m.SocketVIAPeak / m.TCPPeak; imp < 1.3 || imp > 1.7 {
		t.Errorf("bandwidth improvement = %.2fx, want ~1.5x", imp)
	}
}

func TestFig4aOrderingAndMonotonicity(t *testing.T) {
	o := QuickOptions()
	o.MicroIters = 10
	tab := Fig4aLatency(o)
	via, sv, tcp := tab.Series[0].Y, tab.Series[1].Y, tab.Series[2].Y
	for i := range tab.X {
		if !(via[i] < sv[i] && sv[i] < tcp[i]) {
			t.Fatalf("size %v: ordering broken: via=%.1f sv=%.1f tcp=%.1f", tab.X[i], via[i], sv[i], tcp[i])
		}
		if i > 0 && (via[i] <= via[i-1] || sv[i] <= sv[i-1] || tcp[i] <= tcp[i-1]) {
			t.Fatalf("latency not monotone at size %v", tab.X[i])
		}
	}
}

func TestFig4bPeaksAndOrdering(t *testing.T) {
	o := QuickOptions()
	o.MicroMsgs = 40
	tab := Fig4bBandwidth(o)
	n := len(tab.X) - 1
	via, sv, tcp := tab.Series[0].Y, tab.Series[1].Y, tab.Series[2].Y
	if !(tcp[n] < sv[n] && sv[n] <= via[n]+20) {
		t.Fatalf("peak ordering broken: via=%.0f sv=%.0f tcp=%.0f", via[n], sv[n], tcp[n])
	}
	// Figure 2(a): SocketVIA reaches TCP's peak at a much smaller
	// message size.
	tcpPeak := tcp[n]
	crossover := math.Inf(1)
	for i := range tab.X {
		if sv[i] >= tcpPeak {
			crossover = tab.X[i]
			break
		}
	}
	if crossover > 4096 {
		t.Fatalf("SocketVIA reaches TCP peak only at %v bytes", crossover)
	}
}

func TestFig7TCPDropsOutAboveThreeAndQuarter(t *testing.T) {
	o := QuickOptions()
	tab := Fig7(o, false)
	tcp := tab.Series[0].Y
	for i, target := range tab.X {
		if target > 3.3 && !math.IsNaN(tcp[i]) {
			t.Errorf("TCP met %v updates/sec; the paper's TCP tops out at 3.25", target)
		}
		if target <= 3.0 && math.IsNaN(tcp[i]) {
			t.Errorf("TCP missing at %v updates/sec", target)
		}
	}
}

func TestFig7RepartitioningWinsBig(t *testing.T) {
	o := QuickOptions()
	tab := Fig7(o, false)
	tcp, dr := tab.Series[0].Y, tab.Series[2].Y
	for i := range tab.X {
		if math.IsNaN(tcp[i]) {
			continue
		}
		if dr[i] >= tcp[i] {
			t.Fatalf("DR latency %.0f us !< TCP %.0f us at %v updates/sec", dr[i], tcp[i], tab.X[i])
		}
	}
	// At the tightest TCP-feasible guarantee the paper reports >10x;
	// require at least 5x at reduced scale.
	for i := range tab.X {
		if !math.IsNaN(tcp[i]) {
			if ratio := tcp[i] / dr[i]; ratio < 5 {
				t.Fatalf("improvement at %v updates/sec = %.1fx, want >= 5x", tab.X[i], ratio)
			}
			break
		}
	}
}

func TestFig8TCPDropsOutAtTightLatency(t *testing.T) {
	o := QuickOptions()
	tab := Fig8(o, false)
	tcp, sv := tab.Series[0].Y, tab.Series[1].Y
	// At a 100 us guarantee TCP must be gone while SocketVIA still
	// delivers a healthy rate ("close to the peak value").
	last := len(tab.X) - 1
	if !math.IsNaN(tcp[last]) {
		t.Errorf("TCP met the 100 us latency guarantee (rate %.2f)", tcp[last])
	}
	if math.IsNaN(sv[last]) || sv[last] < 3 {
		t.Errorf("SocketVIA rate at 100 us = %.2f, want close to peak", sv[last])
	}
	// At the loosest guarantee TCP works but below SocketVIA.
	if math.IsNaN(tcp[0]) || tcp[0] >= sv[0] {
		t.Errorf("at 1000 us: tcp=%.2f sv=%.2f", tcp[0], sv[0])
	}
}

func TestFig9Shapes(t *testing.T) {
	o := QuickOptions()
	o.MixQueries = 4
	o.ImageBytes = 4 << 20
	mixResponse := func(o Options, kind core.Kind, compute bool, parts int, frac float64) float64 {
		return o.runCells([]pipeCell{o.mixCell(kind, compute, parts, frac)})[0].MeanResponse().Millis()
	}
	// No partitioning: response independent of the mix.
	flat0 := mixResponse(o, core.KindTCP, false, 1, 0)
	flat1 := mixResponse(o, core.KindTCP, false, 1, 1)
	if math.Abs(flat0-flat1) > 0.05*flat0 {
		t.Errorf("no-partition responses vary with mix: %.1f vs %.1f ms", flat0, flat1)
	}
	// 64 partitions: response grows with the complete fraction, and
	// TCP grows faster than SocketVIA.
	tcpLo, tcpHi := mixResponse(o, core.KindTCP, false, 64, 0), mixResponse(o, core.KindTCP, false, 64, 1)
	svLo, svHi := mixResponse(o, core.KindSocketVIA, false, 64, 0), mixResponse(o, core.KindSocketVIA, false, 64, 1)
	if tcpHi <= tcpLo || svHi <= svLo {
		t.Fatalf("partitioned responses not increasing: tcp %.1f->%.1f sv %.1f->%.1f", tcpLo, tcpHi, svLo, svHi)
	}
	if (tcpHi - tcpLo) <= (svHi - svLo) {
		t.Errorf("TCP rise %.1f ms !> SocketVIA rise %.1f ms", tcpHi-tcpLo, svHi-svLo)
	}
	// Zoom-only with 64 partitions is far cheaper than unpartitioned.
	if tcpLo >= flat0/3 {
		t.Errorf("64-partition zoom response %.1f ms not well below unpartitioned %.1f ms", tcpLo, flat0)
	}
}

func TestFig10ReactionLinearInFactorAndRatio(t *testing.T) {
	o := QuickOptions()
	tab := Fig10(o)
	sv, tcp := tab.Series[0].Y, tab.Series[1].Y
	for i := 1; i < len(tab.X); i++ {
		if sv[i] <= sv[i-1] || tcp[i] <= tcp[i-1] {
			t.Fatalf("reaction time not increasing with factor")
		}
	}
	// The paper: reaction time decreases by a factor of ~8 with
	// SocketVIA (the 16KB/2KB block ratio).
	mid := len(tab.X) / 2
	ratio := tcp[mid] / sv[mid]
	if ratio < 5 || ratio > 11 {
		t.Fatalf("TCP/SocketVIA reaction ratio = %.1f, want ~8", ratio)
	}
}

func TestFig11DemandDrivenMasksHeterogeneity(t *testing.T) {
	o := QuickOptions()
	tab := Fig11(o)
	// Series: sv(2) sv(4) sv(8) tcp(2) tcp(4) tcp(8).
	for s := 0; s < 3; s++ {
		svY, tcpY := tab.Series[s].Y, tab.Series[s+3].Y
		for i := range tab.X {
			r := tcpY[i] / svY[i]
			if r > 1.35 || r < 0.7 {
				t.Fatalf("factor series %d prob %v: tcp/sv = %.2f, want close to 1 (paper: TCP close to SocketVIA)",
					s, tab.X[i], r)
			}
		}
		// Execution time grows with the probability of being slow.
		if svY[len(tab.X)-1] <= svY[0] {
			t.Fatalf("series %d not increasing with slow probability", s)
		}
	}
	// Higher heterogeneity factors cost more at high probability.
	last := len(tab.X) - 1
	if !(tab.Series[0].Y[last] < tab.Series[2].Y[last]) {
		t.Fatalf("factor 8 not slower than factor 2")
	}
}

// perfectPipeliningBlock finds the knee of the efficiency curve: the
// smallest ladder block whose pipeline efficiency reaches the given
// fraction (e.g. 0.9) of the transport's plateau efficiency. This is
// the measured counterpart of PipeliningBlock: growing the block
// beyond it buys almost nothing, and load-balancing granularity
// suffers.
func perfectPipeliningBlock(o Options, kind core.Kind, fractionOfPlateau float64) (int, bool) {
	effs := make([]float64, len(o.BlockLadder))
	plateau := 0.0
	for i, block := range o.BlockLadder {
		effs[i] = PipelineEfficiency(o, kind, block)
		if effs[i] > plateau {
			plateau = effs[i]
		}
	}
	if plateau == 0 {
		return 0, false
	}
	for i, block := range o.BlockLadder {
		if effs[i] >= fractionOfPlateau*plateau {
			return block, true
		}
	}
	return 0, false
}

func TestPerfectPipeliningKnees(t *testing.T) {
	o := QuickOptions()
	o.LBBytes = 2 << 20
	o.BlockLadder = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 128 << 10}
	tcpKnee, ok := perfectPipeliningBlock(o, core.KindTCP, 0.9)
	if !ok {
		t.Fatal("no TCP knee found")
	}
	svKnee, ok := perfectPipeliningBlock(o, core.KindSocketVIA, 0.9)
	if !ok {
		t.Fatal("no SocketVIA knee found")
	}
	// Paper: 16 KB for TCP, 2 KB for SocketVIA. Accept one ladder
	// step of slack.
	if tcpKnee < 8<<10 || tcpKnee > 32<<10 {
		t.Errorf("TCP knee = %d, want ~16K", tcpKnee)
	}
	if svKnee > 4<<10 {
		t.Errorf("SocketVIA knee = %d, want ~2K", svKnee)
	}
	if tcpKnee/svKnee < 4 {
		t.Errorf("knee ratio %d/%d < 4; paper's is 8", tcpKnee, svKnee)
	}
}

func TestAblationCreditsStarveThenSaturate(t *testing.T) {
	low := AblationCredits(2, 64*1024, 50)
	high := AblationCredits(16, 64*1024, 50)
	if low >= high {
		t.Fatalf("2 credits (%.0f Mbps) !< 16 credits (%.0f Mbps)", low, high)
	}
}

func TestAblationChunkSizeTradeoff(t *testing.T) {
	small := AblationEagerChunk(2048, 64*1024, 50)
	large := AblationEagerChunk(16384, 64*1024, 50)
	if small >= large {
		t.Fatalf("2K chunks (%.0f Mbps) !< 16K chunks (%.0f Mbps)", small, large)
	}
}

func TestAblationMSSSegmentationCosts(t *testing.T) {
	slowBW, slowLat := AblationTCPMSS(536, 64*1024, 50)
	fastBW, fastLat := AblationTCPMSS(8960, 64*1024, 50)
	if slowBW >= fastBW {
		t.Fatalf("MSS 536 bandwidth %.0f !< MSS 8960 %.0f", slowBW, fastBW)
	}
	if fastLat > slowLat+sim.Microsecond {
		t.Fatalf("jumbo-MSS latency %v worse than small-MSS %v", fastLat, slowLat)
	}
}

func TestAblationDemandWindowUnboundedDegenerates(t *testing.T) {
	o := QuickOptions()
	bounded := AblationDemandWindow(o, core.KindTCP, 2)
	unbounded := AblationDemandWindow(o, core.KindTCP, 0)
	if float64(unbounded) < 1.5*float64(bounded) {
		t.Fatalf("unbounded window makespan %v not much worse than bounded %v", unbounded, bounded)
	}
}

func TestUpdateRateMonotoneInBlockSizeTCP(t *testing.T) {
	o := QuickOptions()
	small := UpdateRate(o, core.KindTCP, false, 2<<10)
	large := UpdateRate(o, core.KindTCP, false, 128<<10)
	if small >= large {
		t.Fatalf("TCP rate at 2K (%.2f) !< at 128K (%.2f)", small, large)
	}
}

func TestPartialLatencyMonotoneInBlockSize(t *testing.T) {
	o := QuickOptions()
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		small := PartialLatency(o, kind, false, 2<<10)
		large := PartialLatency(o, kind, false, 128<<10)
		if small >= large {
			t.Fatalf("%v: partial latency at 2K (%v) !< at 128K (%v)", kind, small, large)
		}
	}
}

func TestFig2CrossoverSocketVIANeedsSmallerMessages(t *testing.T) {
	o := QuickOptions()
	o.MicroMsgs = 50
	tab := Fig2Crossover(o)
	sv, tcp := tab.Series[0].Y, tab.Series[1].Y
	for i, target := range tab.X {
		if math.IsNaN(sv[i]) {
			t.Fatalf("SocketVIA cannot reach %v Mbps", target)
		}
		if math.IsNaN(tcp[i]) {
			continue // TCP simply cannot attain the target at any size
		}
		if sv[i] > tcp[i] {
			t.Errorf("at %v Mbps: SocketVIA needs %v bytes, TCP only %v", target, sv[i], tcp[i])
		}
	}
	// The U1 vs U2 gap of the paper's sketch: at TCP's achievable
	// targets the size ratio should be large.
	if sv[4] > tcp[4]/4 {
		t.Errorf("at 500 Mbps: sv=%v tcp=%v, want sv << tcp", sv[4], tcp[4])
	}
}
