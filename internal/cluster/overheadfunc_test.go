package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// overheadRun drives seeded users of one node's two CPUs, written as
// processes calling Overhead, as continuations calling OverheadFunc, or
// every other one each, beside a process that computes throughout. The
// node crashes with users queued for a CPU, inside a hold and still to
// arrive, restarts, crashes again inside the restart instant and
// restarts for good. It returns one line per step and per counter
// update and instant of the monitor stream, then the telemetry export
// and the event count.
func overheadRun(seed int64, form string) []string {
	k := sim.NewKernel()
	n := testCluster(k).AddNode("n0", DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", int64(k.Now()))+fmt.Sprintf(format, args...))
	}
	col := hpsmon.NewCollector("overhead", hpsmon.Options{Spans: true})
	k.SetMonitor(monLog{col, func(p *sim.Proc, component, name, detail string) {
		who := "kernel"
		if p != nil {
			who = p.Name()
		}
		logf("%s %s %s on %s", component, name, detail, who)
	}})

	const users, rounds = 5, 40
	for id := 0; id < users; id++ {
		name := fmt.Sprintf("user/%d", id)
		if form == "procs" || form == "mixed" && id%2 == 1 {
			k.Go(name, func(p *sim.Proc) {
				for i := 0; i < rounds; i++ {
					p.Sleep(sim.Time(rng.Intn(8)))
					d := sim.Time(rng.Intn(7)) // zero now and then: no CPU, no event
					n.Overhead(p, d)
					logf("%s spent %d, %d in use", name, int64(d), n.CPU().InUse())
				}
			})
			continue
		}
		ident := k.Identity(name)
		i, d := 0, sim.Time(0)
		var sleep, use, used func()
		sleep = func() {
			if i++; i <= rounds {
				k.After(sim.Time(rng.Intn(8)), use)
			}
		}
		use = func() {
			d = sim.Time(rng.Intn(7))
			n.OverheadFunc(ident, d, used)
		}
		used = func() {
			logf("%s spent %d, %d in use", name, int64(d), n.CPU().InUse())
			sleep()
		}
		k.After(0, sleep)
	}
	k.Go("computer", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			p.Sleep(sim.Time(rng.Intn(6)))
			n.Compute(p, sim.Time(1+rng.Intn(5)))
			logf("computed")
		}
	})
	crash := sim.Time(40 + rng.Intn(40))
	k.After(crash, func() {
		logf("fail: %d in use, %d queued", n.CPU().InUse(), n.CPU().QueueLen())
		n.Fail()
	})
	k.After(crash+30, func() {
		logf("restart, and fail in the same instant")
		n.Restart()
		n.Fail()
	})
	k.After(crash+50, func() {
		logf("restart")
		n.Restart()
	})
	k.RunAll()
	var trace strings.Builder
	if err := col.WriteChromeTrace(&trace); err != nil {
		panic(err)
	}
	return append(log, trace.String(), fmt.Sprintf("fired %d", k.EventsFired()))
}

// monLog is the run's collector with every counter update and instant
// also reported to fn, in simulation order; a counter's delta is its
// detail.
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

// OverheadFunc against Overhead, as sim's TestResourceUseOracle holds
// UseFunc against Use: the same users as processes, as continuations
// and mixed leave the same steps and node-halt instants (on the same
// threads of the telemetry export) and the same event count.
func TestOverheadFuncMatchesOverhead(t *testing.T) {
	busyCrashes, queuedCrashes, rehalts := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		proc := overheadRun(seed, "procs")
		for _, form := range []string{"funcs", "mixed"} {
			fn := overheadRun(seed, form)
			if len(proc) != len(fn) {
				t.Fatalf("seed %d: %d steps as processes, %d %s", seed, len(proc), len(fn), form)
			}
			for i := range proc {
				if proc[i] != fn[i] {
					t.Fatalf("seed %d step %d: processes %q, %s %q", seed, i, proc[i], form, fn[i])
				}
			}
		}
		halts := map[string]int{}
		for _, line := range proc {
			switch _, what, _ := strings.Cut(line, " "); {
			case strings.HasPrefix(what, "fail: 2 in use"):
				busyCrashes++
				if !strings.HasSuffix(what, " 0 queued") {
					queuedCrashes++
				}
			case strings.HasPrefix(what, "cluster node-halt n0 on user/"):
				if halts[what]++; halts[what] == 2 {
					rehalts++
				}
			}
		}
	}
	// The workload must reach the cases the oracle exists for.
	if busyCrashes == 0 || queuedCrashes == 0 || rehalts == 0 {
		t.Fatalf("coverage: %d crashes with both CPUs held, %d with users queued, %d users halted twice",
			busyCrashes, queuedCrashes, rehalts)
	}
}

// Kernel-context CPU charges are per segment and per ack: they must not
// allocate, whether the CPU is free or the charge queues for one.
func TestOverheadFuncDoesNotAllocate(t *testing.T) {
	for _, users := range []int{1, 4} {
		k := sim.NewKernel()
		n := testCluster(k).AddNode("n0", DefaultConfig())
		for i := 0; i < users; i++ {
			ident := k.Identity("user")
			var again func()
			again = func() { n.OverheadFunc(ident, 2, again) }
			again()
		}
		k.Run(100)
		if users > n.CPU().Cap() && n.CPU().QueueLen() == 0 {
			t.Fatalf("%d users do not contend for %d CPUs", users, n.CPU().Cap())
		}
		if got := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); got != 0 {
			t.Errorf("%d users: %v allocs per 10 ns of charges", users, got)
		}
	}
}

// BenchmarkNodeOverhead is the protocol CPU charge under contention,
// the shape of softnet beside the application's system calls: four
// users of a node's two CPUs. The func users are OverheadFunc
// continuations, as softnet is: the same events and no parks.
func BenchmarkNodeOverhead(b *testing.B) {
	const charges = 10_000
	for _, form := range []struct {
		name    string
		charger func(k *sim.Kernel, n *Node, charges int)
	}{
		{"proc", func(k *sim.Kernel, n *Node, charges int) {
			k.Go("user", func(p *sim.Proc) {
				for j := 0; j < charges; j++ {
					n.Overhead(p, 3)
				}
			})
		}},
		{"func", func(k *sim.Kernel, n *Node, charges int) {
			ident := k.Identity("user")
			var charge func()
			charge = func() {
				if charges--; charges >= 0 {
					n.OverheadFunc(ident, 3, charge)
				}
			}
			k.After(0, charge)
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				n := testCluster(k).AddNode("n0", DefaultConfig())
				for un := 0; un < 4; un++ {
					form.charger(k, n, charges/4)
				}
				k.RunAll()
			}
		})
	}
}
