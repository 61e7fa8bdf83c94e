// Package chaos is a seeded chaos harness for the overload-control
// and fault-recovery machinery: it deterministically generates
// combined fault + overload scenarios from a single seed, runs a
// producer/consumer filter group under them, and checks invariants
// that must hold whatever the scenario does —
//
//  1. accounting: every produced buffer is delivered, shed with a
//     cause marker, or excused by an explicit producer abort; nothing
//     goes silently missing;
//  2. liveness: the producer and every consumer copy on a non-crashed
//     node finish, or the group reports an error explaining why — no
//     virtual-time deadlock;
//  3. credit conservation: at quiesce every live connection of a
//     credit-armed stream is back at its full window (granted ==
//     returned; dead connections carry their in-flight credits away
//     and are excused);
//  4. replay: the same seed reproduces a byte-identical report;
//  5. telemetry agreement: the fault injector's drop count matches the
//     hpsmon fault counters, and frames out == frames in + dropped,
//     both per hpsmon and per netsim port counters;
//  6. exactly-once: when the scenario arms the delivery ledger (every
//     crash+restart scenario does), no buffer is ever delivered twice,
//     however failover re-dispatch overlaps the restarted copy's
//     rejoin, and a restarted node is not excused from liveness — its
//     copy must finish.
//
// A failing scenario is shrunk (see Shrink) to a minimal reproducer by
// greedy delta debugging over the scenario's fault lists and scalars.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/fault"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// Scenario is one deterministically generated chaos run: a workload
// shape, an overload-control configuration, and a fault plan. It is
// pure data; Run executes it hermetically.
type Scenario struct {
	Seed   int64
	Kind   core.Kind
	Copies int // transparent consumer copies
	UOWs   int
	// BuffersPerUOW buffers of BlockBytes each per unit of work.
	BuffersPerUOW int
	BlockBytes    int
	InboxDepth    int
	Policy        datacutter.Policy
	Shed          datacutter.ShedPolicy
	CreditWindow  int
	// DeadlineBudget, when non-zero, stamps every buffer with
	// produce-time + budget and arms deadline propagation.
	DeadlineBudget sim.Time
	OpTimeout      sim.Time
	RedialAttempts int
	// Gap paces the offered load between buffers; SpikeEvery > 0 makes
	// every SpikeEvery-th unit of work an unpaced burst.
	Gap        sim.Time
	SpikeEvery int
	// ConsumerCost is per-buffer processing at the consumer (overload
	// comes from here plus fault-plan slowdowns).
	ConsumerCost sim.Time
	// CheckpointEvery arms crash-restart recovery on the consumer
	// copies (required whenever the plan restarts a node; normalized
	// forces it, with redial, alongside ExactlyOnce).
	CheckpointEvery sim.Time
	// ExactlyOnce arms the per-stream delivery ledger; invariant 6
	// then demands zero redelivered buffers even across crash+restart.
	ExactlyOnce bool
	Plan        fault.Plan

	// defect, test-only, breaks the harness's own shed accounting:
	// every defect-th shed goes unrecorded, which invariant 1 must
	// catch. It survives shrinking so the reproducer still fails.
	defect int
}

// watchdogHorizon bounds a run in virtual time. Real scenarios finish
// in milliseconds; even a full kernel-TCP retry exhaustion tail is
// ~1.3s. A run still scheduling events at the horizon is livelocked.
const watchdogHorizon = 10 * sim.Second

// wireFaulty reports whether the plan can break or starve connections.
// Pure-shaping conditions (latency, jitter, bandwidth, reordering) are
// not wire-faulty; lossy or rejecting ones are.
func (s Scenario) wireFaulty() bool {
	if len(s.Plan.Links) > 0 || len(s.Plan.Partitions) > 0 || len(s.Plan.Crashes) > 0 {
		return true
	}
	for _, lc := range s.Plan.Conditions {
		if lc.Profile.Lossy() {
			return true
		}
	}
	return false
}

// Normalized exposes the scenario normalization rules to the scenario
// DSL, which must emit files that are already fixed points of them
// (otherwise serialized reproducers would drift on reparse).
func (s Scenario) Normalized() Scenario { return s.normalized() }

// Valid exposes the well-formedness check; the scenario DSL asserts it
// on every scenario a file binds to, as a belt-and-braces guard behind
// its own position-annotated semantic validation.
func (s Scenario) Valid() bool { return s.valid() }

// normalized enforces the validity rules that make a scenario
// survivable by construction: wire faults require demand-driven
// failover with an armed op timeout, and node restarts require the
// full recovery stack — checkpointing on the consumers, redial so
// producers can rejoin, and the exactly-once ledger so rejoin
// redelivery stays invisible. It is a pure function so shrunk
// candidates re-normalize deterministically.
func (s Scenario) normalized() Scenario {
	if s.wireFaulty() {
		s.Policy = datacutter.DemandDriven
		if s.OpTimeout == 0 {
			s.OpTimeout = 5 * sim.Millisecond
		}
	}
	if len(s.Plan.Restarts) > 0 {
		if s.CheckpointEvery == 0 {
			s.CheckpointEvery = 1 * sim.Millisecond
		}
		if s.RedialAttempts == 0 {
			s.RedialAttempts = 4
		}
		s.ExactlyOnce = true
	}
	return s
}

// valid reports whether the scenario is well-formed (plan entries
// reference existing nodes, crashes leave a survivor).
func (s Scenario) valid() bool {
	if s.Copies < 1 || s.UOWs < 1 || s.BuffersPerUOW < 1 || s.BlockBytes < 1 || s.InboxDepth < 1 {
		return false
	}
	nodes := map[string]bool{"src": true}
	for i := 0; i < s.Copies; i++ {
		nodes[consName(i)] = true
	}
	if len(s.Plan.Restarts) == 0 {
		// Without restarts a crashed copy is down forever, so the
		// static count rule guarantees a survivor.
		if len(s.Plan.Crashes) >= s.Copies {
			return false
		}
	} else {
		// Restarts require the full recovery stack (the runtime refuses
		// checkpointing without redial, and a restarted copy without a
		// checkpoint can never rejoin — a guaranteed liveness flag).
		if s.CheckpointEvery <= 0 || s.RedialAttempts <= 0 {
			return false
		}
		for _, rs := range s.Plan.Restarts {
			if !nodes[rs.Node] || rs.Node == "src" {
				return false
			}
			covered := false
			for _, cr := range s.Plan.Crashes {
				if cr.Node == rs.Node && cr.At < rs.At {
					covered = true
				}
			}
			if !covered {
				return false
			}
		}
		if _, down := AllDownAt(s.Plan, s.Copies); down {
			return false
		}
	}
	for _, c := range s.Plan.Crashes {
		if !nodes[c.Node] || c.Node == "src" {
			return false
		}
	}
	for _, sl := range s.Plan.Slowdowns {
		if !nodes[sl.Node] {
			return false
		}
	}
	for _, pt := range s.Plan.Partitions {
		if !nodes[pt.A] || !nodes[pt.B] || pt.To <= pt.From {
			return false
		}
	}
	for _, lf := range s.Plan.Links {
		if (lf.Src != "" && !nodes[lf.Src]) || (lf.Dst != "" && !nodes[lf.Dst]) {
			return false
		}
	}
	for _, lc := range s.Plan.Conditions {
		if (lc.Src != "" && !nodes[lc.Src]) || (lc.Dst != "" && !nodes[lc.Dst]) {
			return false
		}
		if lc.To != 0 && lc.To <= lc.From {
			return false
		}
	}
	return true
}

// AllDownAt is the survivability sweep for plans that restart nodes:
// it replays the plan's crashes and restarts in time order, crashes
// before restarts at equal instants, and returns the first instant at
// which all copies consumer copies are down at once. ok is false when
// at least one copy is up throughout.
func AllDownAt(p fault.Plan, copies int) (at sim.Time, ok bool) {
	type ev struct {
		at   sim.Time
		up   bool
		node string
	}
	evs := make([]ev, 0, len(p.Crashes)+len(p.Restarts))
	for _, c := range p.Crashes {
		evs = append(evs, ev{c.At, false, c.Node})
	}
	for _, rs := range p.Restarts {
		evs = append(evs, ev{rs.At, true, rs.Node})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	down := map[string]bool{}
	for _, e := range evs {
		if e.up {
			delete(down, e.node)
		} else {
			down[e.node] = true
		}
		if len(down) >= copies {
			return e.at, true
		}
	}
	return 0, false
}

func consName(i int) string { return fmt.Sprintf("cons%d", i) }

// Generate derives a scenario from a seed. All draws happen in a fixed
// order so the mapping seed -> scenario is stable.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed}
	if rng.Intn(2) == 0 {
		s.Kind = core.KindTCP
	} else {
		s.Kind = core.KindSocketVIA
	}
	s.Copies = 1 + rng.Intn(3)
	s.UOWs = 1 + rng.Intn(3)
	s.BuffersPerUOW = 4 + rng.Intn(29)
	s.BlockBytes = 1<<10 + rng.Intn(31<<10)
	s.InboxDepth = 1 + rng.Intn(4)
	if rng.Intn(2) == 1 {
		s.Policy = datacutter.DemandDriven
	}
	s.Shed = datacutter.ShedPolicy(rng.Intn(4))
	s.CreditWindow = rng.Intn(5)
	if budget := rng.Intn(4); budget > 0 && s.Shed != datacutter.Block {
		s.DeadlineBudget = sim.Time(budget) * 4 * sim.Millisecond
	}
	s.Gap = sim.Time(rng.Intn(4)) * 50 * sim.Microsecond
	if rng.Intn(3) == 0 {
		s.SpikeEvery = 2
	}
	s.ConsumerCost = sim.Time(rng.Intn(4)) * 25 * sim.Microsecond
	s.RedialAttempts = rng.Intn(2) * 4

	// Fault plan. Every draw happens unconditionally so later choices
	// do not shift when earlier ones are disabled.
	s.Plan.Seed = seed ^ 0x5eed
	slowCons := rng.Intn(3)
	slowFactor := 2.0 + float64(rng.Intn(6))
	slowAt := sim.Time(1+rng.Intn(4)) * sim.Millisecond
	dropCons := rng.Intn(3)
	dropProb := 0.002 + 0.01*rng.Float64()
	corruptProb := 0.002 + 0.008*rng.Float64()
	partCons := rng.Intn(3)
	partFrom := sim.Time(1+rng.Intn(5)) * sim.Millisecond
	partWidth := sim.Time(2+rng.Intn(10)) * sim.Millisecond
	crashCons := rng.Intn(3)
	crashAt := sim.Time(1+rng.Intn(3)) * sim.Millisecond
	wantSlow := rng.Intn(3) == 0
	wantDrop := rng.Intn(3) == 0
	wantCorrupt := rng.Intn(4) == 0
	wantPart := rng.Intn(4) == 0
	wantCrash := rng.Intn(4) == 0

	if wantSlow && slowCons < s.Copies {
		s.Plan.Slowdowns = append(s.Plan.Slowdowns, fault.NodeSlowdown{
			Node: consName(slowCons), At: slowAt, Factor: slowFactor})
	}
	if wantDrop && dropCons < s.Copies {
		s.Plan.Links = append(s.Plan.Links, fault.LinkFault{
			Src: "src", Dst: consName(dropCons), DropProb: dropProb})
	}
	if wantCorrupt && dropCons < s.Copies {
		s.Plan.Links = append(s.Plan.Links, fault.LinkFault{
			Src: "src", Dst: consName(dropCons), CorruptProb: corruptProb})
	}
	if wantPart && partCons < s.Copies {
		s.Plan.Partitions = append(s.Plan.Partitions, fault.Partition{
			A: "src", B: consName(partCons), From: partFrom, To: partFrom + partWidth})
	}
	if wantCrash && s.Copies >= 2 && crashCons < s.Copies {
		s.Plan.Crashes = append(s.Plan.Crashes, fault.NodeCrash{
			Node: consName(crashCons), At: crashAt})
	}

	// Crash-restart recovery draws. Appended after every legacy draw so
	// scenarios from pre-restart seeds are byte-identical; a restart can
	// only revive the crash drawn above, so it rides on wantCrash too.
	restartDelta := sim.Time(1+rng.Intn(4)) * sim.Millisecond
	ckptEvery := sim.Time(1+rng.Intn(3)) * 500 * sim.Microsecond
	wantRestart := rng.Intn(2) == 0
	if wantRestart && len(s.Plan.Crashes) > 0 {
		cr := s.Plan.Crashes[0]
		s.Plan.Restarts = append(s.Plan.Restarts, fault.NodeRestart{
			Node: cr.Node, At: cr.At + restartDelta})
		s.CheckpointEvery = ckptEvery
		s.ExactlyOnce = true
	}
	return s.normalized()
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario Scenario
	// Violations lists every invariant breach (empty = pass).
	Violations []string

	Produced    int
	Delivered   int // unique buffers delivered at least once
	Redelivered int // extra deliveries from failover re-dispatch
	Shed        int // unique buffers shed (with recorded cause)
	ShedByCause map[datacutter.ShedCause]int
	Unaccounted int
	Aborted     bool
	GroupErr    string
	Redials     uint64
	Redispatch  uint64
	// Duplicates counts redeliveries the exactly-once ledger suppressed;
	// Restarts the consumer-copy restart incarnations that ran; MTTR the
	// worst observed restart-to-first-redelivery gap. All are zero (and
	// omitted from Canonical) unless the plan restarts a node.
	Duplicates uint64
	Restarts   int
	MTTR       sim.Time
	End        sim.Time
	// Telemetry is the run's full hpsmon registry rendered as a
	// deterministic table. It is not part of Canonical (invariant 5
	// already cross-checks the load-bearing counters); scenario replay
	// checks compare it byte-for-byte across runs.
	Telemetry string
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Canonical renders the report deterministically; Check compares two
// runs of the same seed byte-for-byte on it.
func (r Report) Canonical() string {
	var b strings.Builder
	s := r.Scenario
	fmt.Fprintf(&b, "seed=%d kind=%s copies=%d uows=%d bpu=%d block=%d inbox=%d policy=%s shed=%s credits=%d budget=%s optimeout=%s redial=%d gap=%s spike=%d cost=%s faults{links=%d parts=%d crashes=%d slows=%d}",
		s.Seed, s.Kind, s.Copies, s.UOWs, s.BuffersPerUOW, s.BlockBytes,
		s.InboxDepth, s.Policy, s.Shed, s.CreditWindow, s.DeadlineBudget,
		s.OpTimeout, s.RedialAttempts, s.Gap, s.SpikeEvery, s.ConsumerCost,
		len(s.Plan.Links), len(s.Plan.Partitions), len(s.Plan.Crashes), len(s.Plan.Slowdowns))
	if len(s.Plan.Conditions) > 0 {
		fmt.Fprintf(&b, " conds=%d", len(s.Plan.Conditions))
	}
	if len(s.Plan.Restarts) > 0 {
		fmt.Fprintf(&b, " restarts=%d ckpt=%s", len(s.Plan.Restarts), s.CheckpointEvery)
	}
	if s.defect > 0 {
		fmt.Fprintf(&b, " defect=%d", s.defect)
	}
	fmt.Fprintf(&b, "\n  produced=%d delivered=%d redelivered=%d shed=%d unaccounted=%d aborted=%v redials=%d redispatch=%d end=%s",
		r.Produced, r.Delivered, r.Redelivered, r.Shed, r.Unaccounted,
		r.Aborted, r.Redials, r.Redispatch, r.End)
	if len(s.Plan.Restarts) > 0 {
		fmt.Fprintf(&b, " copyrestarts=%d dups=%d mttr=%s", r.Restarts, r.Duplicates, r.MTTR)
	}
	causes := make([]int, 0, len(r.ShedByCause))
	for c := range r.ShedByCause {
		causes = append(causes, int(c))
	}
	sort.Ints(causes)
	for _, c := range causes {
		fmt.Fprintf(&b, " shed.%s=%d", datacutter.ShedCause(c), r.ShedByCause[datacutter.ShedCause(c)])
	}
	if r.GroupErr != "" {
		fmt.Fprintf(&b, "\n  err=%s", r.GroupErr)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  VIOLATION: %s", v)
	}
	return b.String()
}

// chaosFilter adapts plain funcs to the datacutter Filter interface.
type chaosFilter struct {
	process  func(*datacutter.Context) error
	finalize func(*datacutter.Context) error
}

func (f *chaosFilter) Init(*datacutter.Context) error { return nil }
func (f *chaosFilter) Process(ctx *datacutter.Context) error {
	return f.process(ctx)
}
func (f *chaosFilter) Finalize(ctx *datacutter.Context) error {
	if f.finalize != nil {
		return f.finalize(ctx)
	}
	return nil
}

// pace sleeps between offered buffers. Blocking goes through the
// explicit proc argument, per the sim discipline.
func pace(p *sim.Proc, d sim.Time) { p.Sleep(d) }

// Run executes one scenario hermetically and checks invariants 1, 2,
// 3 and 5 (Check adds the replay invariant 4).
func Run(s Scenario) Report {
	s = s.normalized()
	rep := Report{Scenario: s, ShedByCause: make(map[datacutter.ShedCause]int)}
	if !s.valid() {
		rep.Violations = append(rep.Violations, "invalid scenario")
		return rep
	}

	prof := core.RecoveryProfile()
	k := sim.NewKernel()
	coll := hpsmon.NewCollector(fmt.Sprintf("chaos-%d", s.Seed), hpsmon.Options{})
	coll.Attach(k)
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	cl.AddNode("src", cluster.DefaultConfig())
	for i := 0; i < s.Copies; i++ {
		cl.AddNode(consName(i), cluster.DefaultConfig())
	}
	inj := fault.Install(cl, s.Plan)
	fab := core.NewFabric(cl, s.Kind, prof)
	rt := datacutter.NewRuntime(cl, fab)

	// Accounting state. All hooks run on the single-threaded kernel in
	// deterministic order; no locking.
	produced := make(map[int64]bool)
	delivered := make(map[int64]int)
	shed := make(map[int64][]datacutter.ShedCause)
	var producedOrder []int64
	sheds := 0
	sourceDone := false
	sinkDone := make([]bool, s.Copies)

	tag := func(uow, i int) int64 { return int64(uow)<<20 | int64(i) }

	onShed := func(b *datacutter.Buffer, cause datacutter.ShedCause) {
		sheds++
		if s.defect > 0 && sheds%s.defect == 0 {
			return // deliberately broken accounting (test-only)
		}
		shed[b.Tag] = append(shed[b.Tag], cause)
		rep.ShedByCause[cause]++
	}
	onDeliver := func(b *datacutter.Buffer) { delivered[b.Tag]++ }

	source := func(int) datacutter.Filter {
		return &chaosFilter{
			process: func(ctx *datacutter.Context) error {
				out := ctx.Output("work")
				uow := ctx.UOW()
				spiking := s.SpikeEvery > 0 && uow%s.SpikeEvery == 0
				for i := 0; i < s.BuffersPerUOW; i++ {
					t := tag(uow, i)
					var dl sim.Time
					if s.DeadlineBudget > 0 {
						dl = ctx.Now() + s.DeadlineBudget
					}
					produced[t] = true
					producedOrder = append(producedOrder, t)
					b := &datacutter.Buffer{Size: s.BlockBytes, Tag: t, Deadline: dl}
					if err := out.Write(ctx.Proc(), b); err != nil {
						rep.Aborted = true
						return err
					}
					if s.Gap > 0 && !spiking {
						pace(ctx.Proc(), s.Gap)
					}
				}
				if err := out.EndOfWork(ctx.Proc()); err != nil {
					rep.Aborted = true
					return err
				}
				return nil
			},
			finalize: func(ctx *datacutter.Context) error {
				if ctx.UOW() == s.UOWs-1 {
					// Drain the stream before declaring done: every sent
					// buffer gets acknowledged or its connection breaks
					// while the writer can still reclaim it, so invariant 1
					// (accounting) and invariant 3 (credit conservation)
					// are checkable at quiesce.
					if err := ctx.Output("work").WaitQuiesce(ctx.Proc()); err != nil {
						rep.Aborted = true
						return err
					}
					sourceDone = true
				}
				return nil
			},
		}
	}
	sink := func(copy int) datacutter.Filter {
		return &chaosFilter{
			process: func(ctx *datacutter.Context) error {
				in := ctx.Input("work")
				for {
					_, ok := in.Read(ctx.Proc())
					if !ok {
						return nil
					}
					if s.ConsumerCost > 0 {
						ctx.Compute(s.ConsumerCost)
					}
				}
			},
			finalize: func(ctx *datacutter.Context) error {
				if ctx.UOW() == s.UOWs-1 {
					sinkDone[copy] = true
				}
				return nil
			},
		}
	}

	cons := make([]string, s.Copies)
	for i := range cons {
		cons[i] = consName(i)
	}
	g := rt.Instantiate(datacutter.GroupSpec{
		Filters: []datacutter.FilterSpec{
			{Name: "source", New: source, Placement: []string{"src"}, InboxDepth: s.InboxDepth},
			{Name: "sink", New: sink, Placement: cons, InboxDepth: s.InboxDepth,
				CheckpointEvery: s.CheckpointEvery},
		},
		Streams: []datacutter.StreamSpec{{
			Name: "work", From: "source", To: "sink",
			Policy:         s.Policy,
			ExactlyOnce:    s.ExactlyOnce,
			OpTimeout:      s.OpTimeout,
			CreditWindow:   s.CreditWindow,
			Deadlines:      s.DeadlineBudget > 0,
			Shed:           s.Shed,
			OnShed:         onShed,
			OnDeliver:      onDeliver,
			RedialAttempts: s.RedialAttempts,
			RedialSeed:     s.Seed ^ 0xd1a1,
		}},
	})
	g.Start(s.UOWs)
	rep.End = k.Run(watchdogHorizon)
	if live := k.Live(); live > 0 {
		// The run did not quiesce: something keeps scheduling events
		// (periodic re-arm masking a deadlock) or an unbounded retry
		// loop survived. RunAll would spin forever here.
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"liveness: watchdog expired at %v with %d live events", watchdogHorizon, live))
	}

	w := g.WriterOf("source", 0, "work")
	rep.Redials = w.Redials()
	rep.Redispatch = w.Redispatched()
	if err := g.Err(); err != nil {
		rep.GroupErr = err.Error()
	}

	// A crashed node is excused from liveness and credit conservation
	// only when it stays down: a restart revives it, and its copy is
	// then held to the same bar as everyone else.
	downForever := make(map[string]bool)
	for _, c := range s.Plan.Crashes {
		downForever[c.Node] = true
	}
	for _, rs := range s.Plan.Restarts {
		delete(downForever, rs.Node)
	}

	// Invariant 1: accounting.
	rep.Produced = len(produced)
	for _, t := range producedOrder {
		d := delivered[t]
		sh := len(shed[t])
		if d > 0 {
			rep.Delivered++
			rep.Redelivered += d - 1
		}
		if sh > 0 {
			rep.Shed++
		}
		if d == 0 && sh == 0 {
			rep.Unaccounted++
			if !rep.Aborted {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"accounting: buffer tag=%d produced but neither delivered nor shed", t))
			}
		}
	}

	// Invariant 2: liveness.
	if !sourceDone && rep.GroupErr == "" {
		rep.Violations = append(rep.Violations,
			"liveness: source neither completed nor failed (virtual-time deadlock)")
	}
	for i := range sinkDone {
		if !sinkDone[i] && !downForever[consName(i)] && rep.GroupErr == "" {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"liveness: sink copy %d on live node did not complete", i))
		}
	}

	// Invariant 3: credit conservation at quiesce.
	if s.CreditWindow > 0 && sourceDone {
		for j := 0; j < w.Targets(); j++ {
			credits, dead := w.CreditState(j)
			if dead || downForever[consName(j)] {
				continue
			}
			if credits != s.CreditWindow {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"credits: target %d holds %d/%d at quiesce", j, credits, s.CreditWindow))
			}
		}
	}

	// Invariant 6: exactly-once delivery across crash+restart.
	for i := 0; i < s.Copies; i++ {
		rep.Duplicates += g.ReaderOf("sink", i, "work").Duplicates()
		rep.Restarts += g.RestartsOf("sink", i)
		restartedAt, recoveredAt := g.RecoveryOf("sink", i)
		if recoveredAt > restartedAt {
			if ttr := recoveredAt - restartedAt; ttr > rep.MTTR {
				rep.MTTR = ttr
			}
		}
	}
	if s.ExactlyOnce && rep.Redelivered > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"exactly-once: %d buffers redelivered despite the ledger", rep.Redelivered))
	}

	// Invariant 5: telemetry agreement.
	reg := coll.Registry()
	cval := func(comp, name string) int64 { return reg.Counter(comp, name).Value() }
	faultDrops := cval("fault", "drop.crash") + cval("fault", "drop.partition") +
		cval("fault", "drop.link") + cval("fault", "drop.reject")
	if faultDrops != int64(inj.Drops()) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"telemetry: fault counters %d != injector drops %d", faultDrops, inj.Drops()))
	}
	if cval("fault", "corrupt.link") != int64(inj.Corrupts()) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"telemetry: fault corrupt counter %d != injector corrupts %d",
			cval("fault", "corrupt.link"), inj.Corrupts()))
	}
	out, in := cval("netsim", "frames.out"), cval("netsim", "frames.in")
	droppedC := cval("netsim", "frames.dropped")
	if out != in+droppedC {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"telemetry: frames.out %d != frames.in %d + dropped %d", out, in, droppedC))
	}
	var sent, recv, dropped uint64
	for _, n := range cl.Nodes() {
		p := net.LookupPort(n.Name())
		if p == nil {
			continue
		}
		sent += p.Sent()
		recv += p.Received()
		dropped += p.Dropped()
	}
	if sent != recv+dropped {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"telemetry: port sent %d != received %d + dropped %d", sent, recv, dropped))
	}
	if int64(sent) != out || int64(recv) != in || int64(dropped) != droppedC {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"telemetry: port counters (%d/%d/%d) disagree with hpsmon (%d/%d/%d)",
			sent, recv, dropped, out, in, droppedC))
	}
	rep.Telemetry = reg.RenderString()
	return rep
}

// Check runs the scenario twice and adds the replay invariant: both
// runs must render byte-identical canonical reports.
func Check(s Scenario) Report {
	r1 := Run(s)
	r2 := Run(s)
	if c1, c2 := r1.Canonical(), r2.Canonical(); c1 != c2 {
		r1.Violations = append(r1.Violations,
			"replay: two runs of the same seed diverged:\n--- run 1:\n"+c1+"\n--- run 2:\n"+c2)
	}
	return r1
}
