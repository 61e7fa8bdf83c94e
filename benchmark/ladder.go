package main

import (
	"fmt"
	"runtime"

	"hpsockets/internal/core"
	"hpsockets/internal/sim"
)

// The stack ladder sends one message stream through successively
// taller benchmark-owned stacks and prices every rung as its stack
// minus the stack below: what one more storey costs per message in
// host ns, kernel events, parks and allocations at 2 KB, and the
// per-KB slope between 2 KB and 32 KB. Fixed cost is what repart-sv
// and pingpong pay; the slope is what the bulk workloads pay.
//
// A taller stack does not use the one below exactly once per message
// (a 2 KB TCP message is two segments and an ack; a vizapp message
// crosses three streams), so a marginal is the cost of adding the
// storey as the applications use it, not a pure self time.

const (
	ladderSmall = 2 << 10
	ladderLarge = 32 << 10
)

// ladderStack is one height of the ladder.
type ladderStack struct {
	name   string
	stream stream
	// kernelOnly marks the two bare-kernel stacks: message size means
	// nothing to them, and they run more messages for a steadier ns.
	kernelOnly bool
}

var ladderStacks = []ladderStack{
	{name: "sim.timer", stream: streamTimers, kernelOnly: true},
	{name: "sim", stream: streamDoorbell, kernelOnly: true},
	{name: "netsim", stream: streamNetsim},
	{name: "ktcp", stream: streamKTCP},
	{name: "via", stream: streamVIA},
	{name: "core.tcp", stream: streamConn(core.KindTCP)},
	{name: "core.sv", stream: streamConn(core.KindSocketVIA)},
	{name: "datacutter.tcp", stream: streamDataCutter(core.KindTCP)},
	{name: "datacutter.sv", stream: streamDataCutter(core.KindSocketVIA)},
	{name: "vizapp.tcp", stream: streamVizapp(core.KindTCP)},
	{name: "vizapp.sv", stream: streamVizapp(core.KindSocketVIA)},
}

// stackCost is what one stack costs per message at one message size.
type stackCost struct {
	Msgs   int     `json:"msgs"`
	HostNS float64 `json:"host_ns_per_msg"`
	Events float64 `json:"events_per_msg"`
	Parks  float64 `json:"parks_per_msg"`
	Allocs float64 `json:"allocs_per_msg"`
}

// ladderSizing is how many messages and timed reps each stack gets.
type ladderSizing struct{ small, large, kernel, reps int }

func ladderSizingFor(smoke bool) ladderSizing {
	if smoke {
		return ladderSizing{small: 16, large: 4, kernel: 200, reps: 1}
	}
	return ladderSizing{small: 1024, large: 128, kernel: 100_000, reps: 5}
}

// measureStack times reps unobserved runs of one stack (host ns and
// allocations) and then one observed run (events and parks, which are
// exact). Every run must deliver every byte.
func measureStack(tr *tracer, parent int, st ladderStack, size, n, reps int, t *tally) stackCost {
	group := fmt.Sprintf("ladder/%s/%d", st.name, size)
	want := int64(size) * int64(n)
	check := func(got int64) {
		t.attempted++
		if got != want {
			t.failed++
			t.notes = append(t.notes, fmt.Sprintf("%s: received %d bytes, want %d", group, got, want))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var secs []float64
	for i := 0; i < reps; i++ {
		id := tr.begin(group, "run", parent)
		start := hostNow()
		got := st.stream(nil, size, n)
		secs = append(secs, hostSince(start))
		tr.end(id)
		check(got)
	}
	runtime.ReadMemStats(&after)

	o := &observers{ledger: true}
	id := tr.begin(group, "verify", parent)
	check(st.stream(o, size, n))
	tr.end(id)
	events, _ := o.events()
	parks := o.parkTotals().parks

	return stackCost{
		Msgs:   n,
		HostNS: median(secs) * 1e9 / float64(n),
		Events: float64(events) / float64(n),
		Parks:  float64(parks) / float64(n),
		Allocs: float64(after.Mallocs-before.Mallocs) / float64(reps*n),
	}
}

// ladderReport is the ladder's raw per-stack costs, kept for the trace
// file; the metrics are the marginals derived from it.
type ladderReport struct {
	Small map[string]stackCost `json:"at_2KB"`
	Large map[string]stackCost `json:"at_32KB"`
}

// perKB is the host-ns slope of one stack between the two sizes.
func (l ladderReport) perKB(stack string) float64 {
	return (l.Large[stack].HostNS - l.Small[stack].HostNS) / float64((ladderLarge-ladderSmall)>>10)
}

// runLadder measures every stack and fills in the ladder metrics.
func runLadder(tr *tracer, cfg runConfig, out map[string]float64, t *tally) ladderReport {
	sz := ladderSizingFor(cfg.smoke)
	rep := ladderReport{Small: map[string]stackCost{}, Large: map[string]stackCost{}}
	root := tr.begin("ladder", "ladder", 0)
	for _, st := range ladderStacks {
		if st.kernelOnly {
			c := measureStack(tr, root, st, ladderSmall, sz.kernel, sz.reps, t)
			rep.Small[st.name], rep.Large[st.name] = c, c
			continue
		}
		rep.Small[st.name] = measureStack(tr, root, st, ladderSmall, sz.small, sz.reps, t)
		rep.Large[st.name] = measureStack(tr, root, st, ladderLarge, sz.large, sz.reps, t)
	}
	fmt.Fprintf(cfg.log, "# stack ladder: %d stacks, %d+1 runs each, %.2f host s\n", len(ladderStacks), sz.reps, tr.end(root))

	timer, bell := rep.Small["sim.timer"], rep.Small["sim"]
	out["sim.host_ns_per_event"] = timer.HostNS / timer.Events
	out["sim.host_ns_per_park"] = bell.HostNS / bell.Parks
	for _, r := range ladderRungs {
		at, below := rep.Small[r.name], rep.Small[r.below]
		p := "ladder." + r.name
		out[p+".host_ns_per_msg"] = at.HostNS - below.HostNS
		out[p+".events_per_msg"] = at.Events - below.Events
		out[p+".parks_per_msg"] = at.Parks - below.Parks
		out[p+".allocs_per_msg"] = at.Allocs - below.Allocs
		out[p+".host_ns_per_kb"] = rep.perKB(r.name) - rep.perKB(r.below)
	}
	return rep
}

// anchorMeventsPerS times a fixed event-churn workload on the bare
// kernel (the same shape as cmd/bench's sanity anchor: same-instant
// ring hits, near and far ladder inserts, a slice of cancelled timers)
// and reports millions of events per host second. It is kernel code,
// so it is a per-layer metric and never a normaliser: dividing by it
// would cancel a kernel gain.
func anchorMeventsPerS(smoke bool) float64 {
	n := 1_000_000
	if smoke {
		n = 20_000
	}
	k := sim.NewKernel()
	rng := uint64(0x9e3779b97f4a7c15)
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
			timer := k.After(d, reschedule)
			if next()%8 == 0 {
				timer.Stop()
			}
		}
	}
	start := hostNow()
	reschedule()
	k.RunAll()
	return float64(n) / hostSince(start) / 1e6
}
