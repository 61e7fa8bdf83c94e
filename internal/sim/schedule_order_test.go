package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// The schedule-order oracle. The scheduler may change which host
// goroutine runs the event loop, but never the order in which procs
// and handlers are activated. scheduleDigest drives a seeded workload
// through every blocking primitive and hashes one line per activation;
// scheduleOracle pins the digests the central dispatcher (the kernel
// loop on Run's goroutine, every park a round trip to it) produced at
// commit de9846d. Every draw comes from one generator consumed in
// activation order, so a single reordering changes all later draws
// and cannot cancel out.
var scheduleOracle = []struct{ seed, digest uint64 }{
	{1, 0x946ee27bbdd2232b},
	{2, 0xe11a8d9fccb710a9},
	{3, 0xd387c55d522205e2},
	{5, 0x20f28a216d6b3084},
	{8, 0xb6903dbed9da1317},
	{13, 0x4f4beb4ef6e66de3},
	{21, 0x3b8c04e393898db0},
	{34, 0x21c5582bbfe19280},
	{55, 0x1eb9f63feebfee2f},
	{89, 0x2ed0cd12b5d23a22},
}

type oracleRun struct {
	k   *Kernel
	h   hash.Hash64
	rng uint64
}

func (o *oracleRun) next() uint64 {
	o.rng ^= o.rng << 13
	o.rng ^= o.rng >> 7
	o.rng ^= o.rng << 17
	return o.rng
}

// n draws from [0, m).
func (o *oracleRun) n(m int) int { return int(o.next() % uint64(m)) }

// log records one activation; p is nil in event (handler) context.
func (o *oracleRun) log(p *Proc, format string, args ...any) {
	id := int64(-1)
	if p != nil {
		id = int64(p.id)
	}
	fmt.Fprintf(o.h, "%d %d ", int64(o.k.now), id)
	fmt.Fprintf(o.h, format, args...)
	o.h.Write([]byte{'\n'})
}

func scheduleDigest(t *testing.T, seed uint64) uint64 {
	k := NewKernel()
	o := &oracleRun{k: k, h: fnv.New64a(), rng: seed*0x9e3779b97f4a7c15 | 1}

	q := NewQueue[int](k, 2)
	cpu := NewResource(k, 2)
	dma := NewSerializer(k)
	cond := NewCond(k)
	served := 0 // the predicate cond guards

	// Producers: sleeps (Sleep(0) included), blocking and timed puts
	// into a two-slot queue, so puts park, time out and hand off.
	var prods, conss []*Proc
	for i, np := 0, 2+o.n(3); i < np; i++ {
		prods = append(prods, k.GoAfter(Time(o.n(4)), "prod", func(p *Proc) {
			for j := 0; j < 30; j++ {
				p.Sleep(Time(o.n(4)))
				o.log(p, "produce %d", j)
				if o.n(3) == 0 {
					o.log(p, "put-timeout %v", q.PutTimeout(p, j, Time(o.n(6))))
				} else {
					o.log(p, "put %v", q.Put(p, j))
				}
			}
		}))
	}
	// Consumers: gets (parked getters take hand-offs), then a counted
	// resource, a serializer or an acquire held across a yield.
	for i, nc := 0, 1+o.n(3); i < nc; i++ {
		conss = append(conss, k.Go("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				o.log(p, "get %d %v", v, ok)
				if !ok {
					return
				}
				switch o.n(4) {
				case 0:
					cpu.Use(p, 1+o.n(2), Time(1+o.n(8)))
				case 1:
					dma.Use(p, Time(o.n(6)), Time(o.n(3)))
				case 2:
					cpu.Acquire(p, 1)
					p.Sleep(0)
					cpu.Release(1)
				}
				o.log(p, "served")
				served++
				cond.Broadcast()
			}
		}))
	}
	k.Go("closer", func(p *Proc) {
		for _, pr := range prods {
			p.Join(pr)
			o.log(p, "joined producer")
		}
		q.Close()
		for _, c := range conss {
			p.Join(c)
		}
		served = 1 << 30
		cond.Broadcast()
		o.log(p, "closed")
	})
	// Condition waiters, plain and timed.
	for i := 0; i < 3; i++ {
		target := 20 * (i + 1)
		k.Go("condw", func(p *Proc) {
			for served < target {
				if o.n(2) == 0 {
					cond.Wait(p)
					o.log(p, "cond")
				} else {
					o.log(p, "cond-timeout %v", cond.WaitTimeout(p, Time(1+o.n(8))))
				}
			}
		})
	}
	// One-shot signals: a timed wait whose expiry often lands on the
	// very instant of the fire, fired from a handler scheduled before
	// the waiter or from a proc spawned after it.
	for i := 0; i < 12; i++ {
		i := i
		s := NewSignal(k)
		start, d := Time(o.n(60)), Time(1+o.n(20))
		wd := d + Time(o.n(3)) - 1 // expiry just before, at, or just after the fire
		fromHandler := o.n(2) == 0
		if fromHandler {
			k.At(start+d, func() {
				o.log(nil, "fire %d", i)
				s.Fire(i)
			})
		}
		k.GoAfter(start, "sigw", func(p *Proc) {
			v, ok := p.WaitTimeout(s, wd)
			o.log(p, "wait-timeout %v %v", v, ok)
			if !ok {
				o.log(p, "wait %v", p.Wait(s))
			}
		})
		if !fromHandler {
			k.GoAfter(start+d, "firer", func(p *Proc) {
				s.Fire(i)
				o.log(p, "fired %d", i)
			})
		}
	}
	// Timers, some stopped before they fire, some after.
	var timers []Timer
	for i := 0; i < 12; i++ {
		i := i
		timers = append(timers, k.After(Time(o.n(60)), func() { o.log(nil, "timer %d %d", i, o.n(100)) }))
	}
	k.Go("stopper", func(p *Proc) {
		for _, tm := range timers {
			p.Sleep(Time(o.n(6)))
			o.log(p, "stop %v", tm.Stop())
		}
	})
	// Spawn, exit (some children never park) and join.
	k.Go("spawner", func(p *Proc) {
		for i := 0; i < 16; i++ {
			c := k.GoAfter(Time(o.n(3)), "child", func(c *Proc) {
				o.log(c, "child start")
				if o.n(2) == 0 {
					c.Sleep(Time(o.n(5)))
				}
				o.log(c, "child exit")
			})
			if o.n(2) == 0 {
				p.Join(c)
				o.log(p, "joined child %v", c.Done())
			} else {
				p.Sleep(Time(o.n(3)))
			}
		}
	})
	// Stop from a proc and from a handler; the stepping loop below
	// resumes the run each time.
	k.Go("halter", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Time(5 + o.n(25)))
			o.log(p, "stop run")
			k.Stop()
		}
	})
	k.At(Time(10+o.n(30)), func() {
		o.log(nil, "handler stop")
		k.Stop()
	})

	// Run(horizon) stepping: procs parked at a horizon or a Stop are
	// resumed by the next call.
	stride := Time(3 + o.n(6))
	for h := stride; ; h += stride {
		end := k.Run(h)
		fmt.Fprintf(o.h, "run %d -> %d fired %d spawned %d live %d\n",
			int64(h), int64(end), k.EventsFired(), k.ProcsSpawned(), k.Live())
		if k.Live() == 0 {
			break
		}
		if h > 100_000 {
			t.Fatalf("seed %d: workload did not quiesce", seed)
		}
	}
	if k.procs != 0 {
		t.Fatalf("seed %d: %d procs still live at quiescence", seed, k.procs)
	}
	return o.h.Sum64()
}

func TestScheduleOrderOracle(t *testing.T) {
	for _, tc := range scheduleOracle {
		got := scheduleDigest(t, tc.seed)
		if again := scheduleDigest(t, tc.seed); again != got {
			t.Fatalf("seed %d: digest differs run to run: %#x vs %#x", tc.seed, got, again)
		}
		if got != tc.digest {
			t.Errorf("seed %d: schedule digest %#x, oracle %#x", tc.seed, got, tc.digest)
		}
	}
}
