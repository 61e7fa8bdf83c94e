package datacutter

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/fault"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// The stream-lifecycle oracle. Up to commit d1b682c the stream layer
// kept a target's liveness, its connection's identity and its
// sent-but-unacknowledged work in several parallel records armed by
// different flags; since then a target has one state, one connection
// generation and one in-flight FIFO. The rewrite promises that nothing
// outside the package can tell. lifecycleRun drives seeded scenarios
// through the public API into every failover, redial, rejoin, credit
// and shed branch and hashes one line per datacutter counter update and
// instant of the monitor stream and per API return value, each with its
// virtual time, then the counters, the Chrome trace export (span thread
// names and ids), EventsFired and ProcsSpawned. lifecycleOracle pins
// the event counts d1b682c produced. Its digests were captured over the
// monitor stream from code whose digests of the older trace-hook log
// still matched d1b682c, so they stand for the same behaviour. Every
// draw of a run comes from one generator consumed in scenario order, so
// the scenarios of one run cannot cancel each other out.
var lifecycleOracle = []struct {
	seed   int64
	kind   core.Kind
	policy Policy
	digest uint64
	fired  uint64
}{
	{1, core.KindTCP, RoundRobin, 0x82ec8020d5b6868a, 147481},
	{1, core.KindTCP, DemandDriven, 0xf42894b19801da38, 131912},
	{1, core.KindSocketVIA, RoundRobin, 0xff8a9da10050552d, 104788},
	{1, core.KindSocketVIA, DemandDriven, 0x31c67ead15d0f286, 104688},
	{2, core.KindTCP, RoundRobin, 0xe1de611113f650fc, 147622},
	{2, core.KindTCP, DemandDriven, 0xdbfc512ce4e484b9, 128633},
	{2, core.KindSocketVIA, RoundRobin, 0x366fc51f2fd4a521, 108503},
	{2, core.KindSocketVIA, DemandDriven, 0xe82cd23ccda08009, 104830},
	{3, core.KindTCP, RoundRobin, 0x91e549765de0ef65, 146996},
	{3, core.KindTCP, DemandDriven, 0xa4214c2e5ba5caf9, 130029},
	{3, core.KindSocketVIA, RoundRobin, 0xffe944af3fb88494, 109305},
	{3, core.KindSocketVIA, DemandDriven, 0xc15970eaba21a3aa, 100782},
	{5, core.KindTCP, RoundRobin, 0xbf93ee0d66a2e53c, 150558},
	{5, core.KindTCP, DemandDriven, 0x33ed1675188b6ae8, 134882},
	{5, core.KindSocketVIA, RoundRobin, 0xa7f3d872ec762c1a, 113090},
	{5, core.KindSocketVIA, DemandDriven, 0x9e18d6437acbec48, 99591},
	{8, core.KindTCP, RoundRobin, 0xe9d20cf37bf58446, 149510},
	{8, core.KindTCP, DemandDriven, 0x0fa59ec98ba113b3, 137298},
	{8, core.KindSocketVIA, RoundRobin, 0xd670696288ed7fb6, 115132},
	{8, core.KindSocketVIA, DemandDriven, 0x62b731aa1965c77f, 106742},
	{13, core.KindTCP, RoundRobin, 0x3f0977ef69742071, 140978},
	{13, core.KindTCP, DemandDriven, 0x49522dc39fdfc2be, 134986},
	{13, core.KindSocketVIA, RoundRobin, 0xfc26118bc35a621f, 115442},
	{13, core.KindSocketVIA, DemandDriven, 0x5fdf65882564b0a2, 108338},
	{21, core.KindTCP, RoundRobin, 0xb18fa2e46c936fc8, 146287},
	{21, core.KindTCP, DemandDriven, 0x14022863f5f4d8e5, 136919},
	{21, core.KindSocketVIA, RoundRobin, 0x0a6ca27c611fac60, 110389},
	{21, core.KindSocketVIA, DemandDriven, 0xbb97d28e70ea656f, 103464},
	{34, core.KindTCP, RoundRobin, 0x9b2c8133fb0a6341, 150506},
	{34, core.KindTCP, DemandDriven, 0xf440c121690e9732, 134865},
	{34, core.KindSocketVIA, RoundRobin, 0xb7989f6fae7f5f1f, 110219},
	{34, core.KindSocketVIA, DemandDriven, 0xc728d67b6e2bde9d, 99423},
}

// lcRun is the log of one (seed, transport, policy) run.
type lcRun struct {
	t      *testing.T
	rng    *rand.Rand
	kind   core.Kind
	policy Policy
	h      hash.Hash64
	log    bytes.Buffer // the logf lines of h's input, saved when a digest is lost
	fired  uint64
	seen   map[string]int // monitor events and derived branch names, for coverage

	k *sim.Kernel // the current scenario's kernel
}

// monLog is the oracle's collector with every counter update and
// instant also reported to fn, in simulation order; a counter's delta
// is its detail.
type monLog struct {
	*hpsmon.Collector
	fn func(p *sim.Proc, component, name, detail string)
}

func (m monLog) Count(at sim.Time, component, name string, delta int64) {
	m.fn(nil, component, name, strconv.FormatInt(delta, 10))
	m.Collector.Count(at, component, name, delta)
}

func (m monLog) Instant(at sim.Time, p *sim.Proc, component, name, detail string) {
	m.fn(p, component, name, detail)
	m.Collector.Instant(at, p, component, name, detail)
}

// staleConn reports whether the copy-fail being recorded is tryRejoin
// retiring a connection that predates its consumer's restart.
func staleConn() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for failing := false; ; {
		f, more := frames.Next()
		if failing {
			return strings.HasSuffix(f.Function, ".tryRejoin")
		}
		failing = strings.HasSuffix(f.Function, ".failTarget")
		if !more {
			return false
		}
	}
}

func (l *lcRun) logf(format string, args ...any) {
	w := io.MultiWriter(l.h, &l.log)
	fmt.Fprintf(w, "%d ", int64(l.k.Now()))
	fmt.Fprintf(w, format, args...)
	w.Write([]byte{'\n'})
}

// saveLog writes the run's log lines to a file that outlives the test
// and returns its path, to diff a run that lost its digest against the
// same run at the parent commit (copy this file there and alter the
// run's digest to make it save).
func (l *lcRun) saveLog(seed int64) string {
	f, err := os.CreateTemp("", fmt.Sprintf("lifecycle-%d-%d-%d-*.log", seed, l.kind, l.policy))
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	if _, err := f.Write(l.log.Bytes()); err != nil {
		return err.Error()
	}
	return f.Name()
}

// jitter draws a time in [base, base+spread).
func (l *lcRun) jitter(base, spread sim.Time) sim.Time {
	return base + sim.Time(l.rng.Int63n(int64(spread)))
}

// lcSource describes what every producer copy writes per unit of work.
type lcSource struct {
	uows, per, size int
	gap             sim.Time // pause after each write; copy c pauses gap*(1+c*skew)
	skew            int
	budget          sim.Time // deadline budget (0: no deadline)
	expireEvery     int      // every n-th buffer is already expired at send
	writeTo         bool     // explicit targets, round-robin by index
	pause           sim.Time // pause between the last write and EndOfWork
	quiesce         bool     // WaitQuiesce after the last unit's EndOfWork
}

func (l *lcRun) source(c lcSource) func(int) Filter {
	return func(copy int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out, p := ctx.Output("s"), ctx.Proc()
			for i := 0; i < c.per; i++ {
				b := &Buffer{Size: c.size, Tag: int64(ctx.UOW())<<20 | int64(copy)<<16 | int64(i)}
				if c.budget > 0 {
					b.Deadline = p.Now() + c.budget
					if c.expireEvery > 0 && i%c.expireEvery == c.expireEvery-1 {
						b.Deadline = p.Now()
					}
				}
				var err error
				if c.writeTo {
					err = out.WriteTo(p, i%out.Targets(), b)
				} else {
					err = out.Write(p, b)
				}
				l.logf("src%d write %x: %v", copy, b.Tag, err)
				if err != nil {
					return err
				}
				if c.gap > 0 {
					p.Sleep(c.gap * sim.Time(1+copy*c.skew))
				}
			}
			if c.pause > 0 {
				p.Sleep(c.pause)
			}
			err := out.EndOfWork(p)
			l.logf("src%d eow %d: %v", copy, ctx.UOW(), err)
			if err == nil && c.quiesce && ctx.UOW() == c.uows-1 {
				err = out.WaitQuiesce(p)
				l.logf("src%d quiesce: %v", copy, err)
			}
			return err
		}}
	}
}

// sink reads every unit of work to its end, spending cost per buffer;
// the first unit starts after stall, so a burst finds the inbox full.
func (l *lcRun) sink(cost, stall sim.Time) func(int) Filter { return l.pollingSink(cost, stall, 0) }

// pollingSink is sink, except that until virtual time poll a unit that
// ends is read again: a reader that has lost every producer connection
// ends its unit, and only a redial brings one back.
func (l *lcRun) pollingSink(cost, stall, poll sim.Time) func(int) Filter {
	return func(copy int) Filter {
		return &funcFilter{
			init: func(ctx *Context) error {
				if stall > 0 && ctx.UOW() == 0 {
					ctx.Proc().Sleep(stall)
				}
				return nil
			},
			process: func(ctx *Context) error {
				in := ctx.Input("s")
				for {
					b, ok := in.Read(ctx.Proc())
					if !ok {
						if ctx.Now() >= poll {
							l.logf("dst%d uow %d ends", copy, ctx.UOW())
							return nil
						}
						ctx.Proc().Sleep(2 * sim.Millisecond)
						continue
					}
					l.logf("dst%d read %x uow %d size %d degraded %v", copy, b.Tag, b.UOW, b.Size, b.Degraded)
					if cost > 0 {
						ctx.Compute(cost)
					}
				}
			},
		}
	}
}

// scenario runs one filter group (src copies on p0.., dst copies on
// c0..) on a fresh kernel under the fault plan and logs it.
func (l *lcRun) scenario(name string, plan fault.Plan, srcs, dsts int, src lcSource, sink func(int) Filter,
	inbox int, ckpt sim.Time, ss StreamSpec) map[string]int {
	prof := core.RecoveryProfile()
	k := sim.NewKernel()
	l.k = k
	seen := map[string]int{}
	col := hpsmon.NewCollector("lifecycle-"+name, hpsmon.Options{Spans: true})
	k.SetMonitor(monLog{col, func(_ *sim.Proc, component, name, detail string) {
		if component != "datacutter" {
			return
		}
		seen[name]++
		if name == "copy-fail" && staleConn() {
			seen["stale-conn"]++
		}
		l.logf("%s %s", name, detail)
	}})
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	var pn, cn []string
	for i := 0; i < srcs; i++ {
		pn = append(pn, fmt.Sprintf("p%d", i))
		cl.AddNode(pn[i], cluster.DefaultConfig())
	}
	for i := 0; i < dsts; i++ {
		cn = append(cn, fmt.Sprintf("c%d", i))
		cl.AddNode(cn[i], cluster.DefaultConfig())
	}
	fault.Install(cl, plan)
	rt := NewRuntime(cl, core.NewFabric(cl, l.kind, prof))

	l.logf("scenario %s", name)
	ss.Name, ss.From, ss.To, ss.Policy = "s", "src", "dst", l.policy
	ss.OnShed = func(b *Buffer, c ShedCause) { l.logf("shed %x %v", b.Tag, c) }
	ss.OnDeliver = func(b *Buffer) { l.logf("deliver %x", b.Tag) }
	g := rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: l.source(src), Placement: pn},
			{Name: "dst", New: sink, Placement: cn, InboxDepth: inbox, CheckpointEvery: ckpt},
		},
		Streams: []StreamSpec{ss},
	})
	g.Start(src.uows)
	k.RunAll()

	for i := 0; i < srcs; i++ {
		w := g.WriterOf("src", i, "s")
		l.logf("w%d sent %v live %d/%d redispatched %d shed %d degraded %d redials %d", i, w.Sent(),
			w.LiveTargets(), w.Targets(), w.Redispatched(), w.ShedAtSend(), w.DegradedAtSend(), w.Redials())
		for j := 0; j < dsts; j++ {
			credits, dead := w.CreditState(j)
			l.logf("w%d->%d credits %d dead %v acklat %v", i, j, credits, dead, w.AckLatencies(j))
		}
	}
	for j := 0; j < dsts; j++ {
		r := g.ReaderOf("dst", j, "s")
		at, rec := g.RecoveryOf("dst", j)
		l.logf("r%d received %d duplicates %d shed %d restarts %d recovery %d..%d", j, r.Received(),
			r.Duplicates(), r.ShedTotal(), g.RestartsOf("dst", j), int64(at), int64(rec))
	}
	l.logf("done %v err %v", g.Done().Fired(), g.Err())
	if err := col.WriteChromeTrace(l.h); err != nil {
		l.t.Fatal(err)
	}
	fmt.Fprintf(l.h, "fired %d spawned %d\n", k.EventsFired(), k.ProcsSpawned())
	l.fired += k.EventsFired()
	for name, n := range seen {
		l.seen[name] += n
	}
	return seen
}

// acked is the stream spec every failover scenario starts from:
// acknowledged, so a failed copy's outstanding work is re-dispatched.
func (l *lcRun) acked() StreamSpec {
	return StreamSpec{Acks: true, MaxUnacked: 4, OpTimeout: sim.Millisecond, RecordAckLatency: true}
}

func lifecycleRun(t *testing.T, seed int64, kind core.Kind, policy Policy) *lcRun {
	l := &lcRun{t: t, rng: rand.New(rand.NewSource(seed)), kind: kind, policy: policy,
		h: fnv.New64a(), seen: map[string]int{}}
	const ms, us = sim.Millisecond, sim.Microsecond
	crash := func(node string, at sim.Time) fault.Plan {
		return fault.Plan{Seed: seed, Crashes: []fault.NodeCrash{{Node: node, At: at}}}
	}
	restart := func(node string, at, down sim.Time) fault.Plan {
		pl := crash(node, at)
		pl.Restarts = []fault.NodeRestart{{Node: node, At: at + down}}
		return pl
	}
	paced := lcSource{uows: 3, per: 12, size: 8 << 10, gap: 100 * us, quiesce: true}

	// A consumer copy crashes mid-unit: without redial its work moves to
	// the survivor; the single copy of the second run leaves none.
	ss := l.acked()
	l.scenario("crash", crash("c1", l.jitter(1*ms, 2*ms)), 1, 2, paced, l.sink(50*us, 0), 2, 0, ss)
	l.scenario("crash-all", crash("c0", l.jitter(1*ms, 2*ms)), 1, 1, paced, l.sink(50*us, 0), 2, 0, ss)

	// Both connections are cut by a partition that heals: the writer
	// redials; later the redialed copy's node crashes for good.
	ss = l.acked()
	ss.RedialAttempts, ss.RedialSeed = 4, seed
	cut := l.jitter(1*ms, 1*ms)
	pl := crash("c0", cut+l.jitter(4*ms, 3*ms))
	pl.Partitions = []fault.Partition{{A: "p0", B: "c0", From: cut, To: cut + 200*us}, {A: "p0", B: "c1", From: cut, To: cut + 200*us}}
	long := paced
	long.per = 40
	l.scenario("redial", pl, 1, 2, long, l.pollingSink(20*us, 0, 8*sim.Second), 2, 0, ss)

	// Crash and restart of a checkpointing copy on an exactly-once
	// stream: rejoin, resync, duplicate suppression.
	ss = l.acked()
	ss.RedialAttempts, ss.RedialSeed, ss.ExactlyOnce = 8, seed, true
	rec := lcSource{uows: 8, per: 10, size: 8 << 10, gap: 100 * us, quiesce: true}
	l.scenario("restart", restart("c0", l.jitter(2*ms, 2*ms), l.jitter(1500*us, 1*ms)), 1, 1, rec, l.sink(0, 0), 2, 1*ms, ss)
	l.scenario("restart-2copies", restart("c1", l.jitter(2*ms, 2*ms), l.jitter(1500*us, 1*ms)), 1, 2, rec, l.sink(30*us, 0), 2, 500*us, ss)

	// The restart comes before the writer has noticed the crash: the
	// rejoin request finds a connection that predates it.
	l.scenario("restart-fast", restart("c0", l.jitter(2*ms, 2*ms), l.jitter(100*us, 300*us)), 1, 1, rec, l.sink(0, 0), 2, 1*ms, ss)

	// The restart comes while the writer is backing off inside its own
	// redial, which then re-establishes the connection first: the rejoin
	// request only has the resync left to send.
	slow := ss
	slow.OpTimeout = 300 * us
	seen := l.scenario("restart-redialed", restart("c0", l.jitter(2*ms, 1*ms), l.jitter(700*us, 600*us)), 1, 1, rec, l.sink(0, 0), 2, 1*ms, slow)
	if seen["redial"] > 0 && seen["rejoin"] == 0 && seen["producers.rejoined"] > 0 {
		l.seen["rejoin-resync-only"]++
	}

	// The restarted copy cannot be reached for longer than the redial
	// budget: the rejoin grace deadline completes it vacuously.
	at := l.jitter(2*ms, 2*ms)
	pl = restart("c0", at, 1*ms)
	pl.Partitions = []fault.Partition{{A: "p0", B: "c0", From: at, To: at + 600*ms}}
	l.scenario("restart-unreachable", pl, 1, 1, rec, l.sink(0, 0), 2, 1*ms, ss)

	// Two producers, one running ahead, feed a checkpointing copy that
	// restarts with next-unit buffers stashed; then one producer's node
	// dies mid-unit and the unit completes with one marker fewer.
	two := rec
	two.skew, two.uows = 3, 5
	l.scenario("restart-stash", restart("c0", l.jitter(3*ms, 2*ms), l.jitter(1500*us, 1*ms)), 2, 1, two, l.sink(0, 0), 8, 1*ms, ss)
	plain := StreamSpec{OpTimeout: 1 * ms}
	two.quiesce = false
	l.scenario("producer-lost", crash("p1", l.jitter(1*ms, 2*ms)), 2, 1, two, l.sink(0, 0), 2, 0, plain)

	// A partition longer than the op timeout on a credit-armed stream:
	// the credit stall times out and the copy is failed over.
	ss = StreamSpec{CreditWindow: 2, OpTimeout: 1 * ms, Acks: l.rng.Intn(2) == 0}
	cut = l.jitter(1*ms, 1*ms)
	pl = fault.Plan{Seed: seed, Partitions: []fault.Partition{{A: "p0", B: "c0", From: cut, To: cut + 20*ms}}}
	l.scenario("credit-partition", pl, 1, 2, paced, l.sink(150*us, 0), 2, 0, ss)
	healthy := paced
	healthy.writeTo, healthy.gap = true, 0
	l.scenario("credit-writeto", fault.Plan{}, 1, 2, healthy, l.sink(150*us, 0), 2, 0, StreamSpec{CreditWindow: 2})

	// A corrupted reverse-stream header.
	pl = fault.Plan{Seed: seed, Links: []fault.LinkFault{{Src: "c0", Dst: "p0", CorruptProb: 0.02 + 0.03*l.rng.Float64()}}}
	l.scenario("corrupt-reverse", pl, 1, 2, paced, l.sink(50*us, 0), 2, 0, l.acked())

	// A burst against a stalled consumer's full inbox under each shed
	// policy; every fourth buffer is already expired at send.
	burst := lcSource{uows: 2, per: 12, size: 4 << 10, budget: l.jitter(2*ms, 2*ms), expireEvery: 4}
	for _, shed := range []ShedPolicy{DropOldest, DropNewest, DegradeQuality} {
		ss = StreamSpec{Deadlines: true, Shed: shed, CreditWindow: l.rng.Intn(2) * 6}
		l.scenario("shed-"+shed.String(), fault.Plan{}, 1, 1, burst, l.sink(100*us, 5*ms), 2, 0, ss)
	}

	// The writer is idle when a copy dies with work in flight, so the
	// ack reader reclaims it and EndOfWork has a backlog to flush: to
	// the survivor, to nobody, and (the failure noticed only after the
	// marker) past the end of its unit.
	idle := lcSource{uows: 2, per: 6, size: 8 << 10, pause: 4 * ms}
	ss = l.acked()
	ss.MaxUnacked = 0
	l.scenario("eow-backlog", crash("c1", l.jitter(300*us, 300*us)), 1, 2, idle, l.sink(400*us, 0), 8, 0, ss)
	l.scenario("eow-no-copies", crash("c0", l.jitter(300*us, 300*us)), 1, 1, idle, l.sink(400*us, 0), 8, 0, ss)
	late := idle
	late.pause = 0
	late.quiesce = true
	l.scenario("eow-late", crash("c1", l.jitter(300*us, 300*us)), 1, 2, late, l.sink(400*us, 0), 8, 0, ss)
	return l
}

func TestStreamLifecycleOracle(t *testing.T) {
	seen := map[string]int{}
	i := 0
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
			for _, policy := range []Policy{RoundRobin, DemandDriven} {
				got := lifecycleRun(t, seed, kind, policy)
				if i >= len(lifecycleOracle) {
					t.Errorf("no oracle entry: {%d, core.Kind(%d), Policy(%d), %#x, %d},", seed, kind, policy, got.h.Sum64(), got.fired)
				} else if want := lifecycleOracle[i]; want.seed != seed || want.kind != kind || want.policy != policy {
					t.Fatalf("oracle entry %d is for seed %d %v %v, not seed %d %v %v", i, want.seed, want.kind, want.policy, seed, kind, policy)
				} else if got.h.Sum64() != want.digest || got.fired != want.fired {
					t.Errorf("seed %d %v %v: digest %#x, %d events; the oracle holds %#x, %d; log saved in %s",
						seed, kind, policy, got.h.Sum64(), got.fired, want.digest, want.fired, got.saveLog(seed))
				}
				i++
				for name, n := range got.seen {
					seen[name] += n
				}
			}
		}
	}
	// The scenarios must reach the branches the oracle exists for.
	for _, name := range []string{"copy-fail", "redial", "rejoin", "uow-lost", "dup-suppressed", "producers.lost",
		"producers.rejoined", "rejoin.timeouts", "stash.dropped", "shed-oldest", "shed-newest", "shed-expired", "degrade",
		"ckpt.saved", "copy-restart", "copy-down", "stale-conn", "rejoin-resync-only"} {
		if seen[name] == 0 {
			t.Errorf("coverage: no %q in any run (saw %v)", name, seen)
		}
	}
}
