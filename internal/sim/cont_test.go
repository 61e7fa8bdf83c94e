package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The continuation oracle. GetFunc, PutFunc and UseFunc promise to
// book what Get, Put and Use book and to run their continuation in the
// (time, seq) position of the blocking call's wake-up, so a stage
// written either way is indistinguishable to everything else in the
// simulation. contRun drives one seeded workload around a
// Get -> Use -> Put stage and logs every step of every party; the test
// runs it with the stage as a process and as a continuation chain and
// demands the same log, event count, hand-offs and ring hits.

// contProf counts what the profiler seam reports.
type contProf struct{ parks, handoffs, ringHits int }

func (c *contProf) Park(Time, *Proc, string) { c.parks++ }
func (c *contProf) Wake(Time, *Proc, string) {}
func (c *contProf) Handoff(Time, string)     { c.handoffs++ }
func (c *contProf) RingHit(Time)             { c.ringHits++ }

type contResult struct {
	log    []string
	fired  uint64
	prof   contProf
	stalls int // stage Puts that did not complete at the instant of the Use before them
}

func contRun(seed int64, asFunc bool) contResult {
	k := NewKernel()
	var res contResult
	k.SetProfiler(&res.prof)
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%d ", int64(k.now))+fmt.Sprintf(format, args...))
	}

	// in fills (capacity 2, three producers), and the stage shares it
	// with a proc getter. out fills too (capacity 1, slow consumer), so
	// the stage's Put queues among proc putters, some of them timed.
	in := NewQueue[int](k, 2)
	out := NewQueue[int](k, 1)
	ser := NewSerializer(k)
	hold := func(v int) Time { return Time(1 + v%7) }

	if asFunc {
		var cur int
		var usedAt Time
		var got func(int, bool)
		put := func(ok bool) {
			if k.now != usedAt {
				res.stalls++
			}
			logf("stage put %d %v", cur, ok)
			in.GetFunc(got)
		}
		used := func() {
			logf("stage used %d", cur)
			usedAt = k.now
			out.PutFunc(cur, put)
		}
		got = func(v int, ok bool) {
			if !ok {
				logf("stage closed")
				return
			}
			logf("stage got %d", v)
			cur = v
			ser.UseFunc(hold(v), 1, used)
		}
		k.After(0, func() { in.GetFunc(got) })
	} else {
		k.Go("stage", func(p *Proc) {
			for {
				v, ok := in.Get(p)
				if !ok {
					logf("stage closed")
					return
				}
				logf("stage got %d", v)
				ser.Use(p, hold(v), 1)
				logf("stage used %d", v)
				usedAt := k.now
				ok = out.Put(p, v)
				if k.now != usedAt {
					res.stalls++
				}
				logf("stage put %d %v", v, ok)
			}
		})
	}

	// A second user of the serializer, so the stage's holds queue.
	k.Go("ser-rival", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Sleep(Time(rng.Intn(9)))
			ser.Use(p, Time(rng.Intn(4)), 0)
			logf("rival used")
		}
	})
	// A proc getter competing with the stage for in's items.
	k.Go("in-rival", func(p *Proc) {
		for {
			v, ok := in.Get(p)
			if !ok {
				logf("in-rival closed")
				return
			}
			logf("in-rival got %d", v)
			p.Sleep(Time(3 + rng.Intn(20)))
		}
	})
	var producers []*Proc
	for id := 0; id < 3; id++ {
		id := id
		producers = append(producers, k.Go("producer", func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Sleep(Time(rng.Intn(6)))
				v := id*1000 + i
				if id == 2 {
					logf("producer %d timed put %v", v, in.PutTimeout(p, v, Time(1+rng.Intn(4))))
				} else {
					logf("producer %d put %v", v, in.Put(p, v))
				}
			}
		}))
	}
	// Proc putters on out, ahead of and behind the stage's.
	for id := 0; id < 2; id++ {
		id := id
		k.Go("out-rival", func(p *Proc) {
			for i := 0; i < 25; i++ {
				p.Sleep(Time(rng.Intn(15)))
				v := -(id*1000 + i + 1)
				if id == 1 {
					logf("out-rival %d timed put %v", v, out.PutTimeout(p, v, Time(1+rng.Intn(6))))
				} else {
					logf("out-rival %d put %v", v, out.Put(p, v))
				}
			}
		})
	}
	// The consumer drains out slowly, sometimes by eviction, which
	// admits a parked putter without a Get.
	k.Go("consumer", func(p *Proc) {
		for !(out.Closed() && out.Len() == 0) {
			p.Sleep(Time(rng.Intn(12)))
			if rng.Intn(4) == 0 {
				v, ok := out.Evict(func(int) bool { return true })
				logf("consumer evicted %d %v", v, ok)
				continue
			}
			v, ok := out.Get(p)
			logf("consumer got %d %v", v, ok)
		}
	})
	k.Go("closer", func(p *Proc) {
		for _, pr := range producers {
			p.Join(pr)
		}
		p.Sleep(200) // the stage and in-rival are parked on an empty in by now
		logf("close in")
		in.Close()
		p.Sleep(200)
		logf("close out")
		out.Close()
	})
	k.RunAll()
	res.fired = k.EventsFired()
	return res
}

func TestContinuationOracle(t *testing.T) {
	var stalls, timeouts, evictions int
	for seed := int64(1); seed <= 40; seed++ {
		proc, fn := contRun(seed, false), contRun(seed, true)
		if len(proc.log) != len(fn.log) {
			t.Fatalf("seed %d: %d steps as a process, %d as continuations", seed, len(proc.log), len(fn.log))
		}
		for i := range proc.log {
			if proc.log[i] != fn.log[i] {
				t.Fatalf("seed %d step %d: process %q, continuations %q", seed, i, proc.log[i], fn.log[i])
			}
		}
		if proc.fired != fn.fired {
			t.Errorf("seed %d: EventsFired %d as a process, %d as continuations", seed, proc.fired, fn.fired)
		}
		if proc.prof.handoffs != fn.prof.handoffs || proc.prof.ringHits != fn.prof.ringHits {
			t.Errorf("seed %d: hand-offs/ring hits %d/%d as a process, %d/%d as continuations", seed,
				proc.prof.handoffs, proc.prof.ringHits, fn.prof.handoffs, fn.prof.ringHits)
		}
		if proc.prof.parks <= fn.prof.parks {
			t.Errorf("seed %d: %d parks as a process, %d as continuations: the stage still parks", seed,
				proc.prof.parks, fn.prof.parks)
		}
		if proc.stalls != fn.stalls {
			t.Errorf("seed %d: %d stalled stage puts as a process, %d as continuations", seed, proc.stalls, fn.stalls)
		}
		stalls += fn.stalls
		stageClosed := false
		for i, line := range fn.log {
			switch {
			case strings.HasSuffix(line, "stage closed"):
				// Close found the stage parked: it runs after Close returns.
				stageClosed = strings.HasSuffix(fn.log[i-1], "close in") || strings.HasSuffix(fn.log[i-1], "in-rival closed")
			case strings.HasSuffix(line, "timed put false"):
				timeouts++
			case strings.Contains(line, "evicted") && strings.HasSuffix(line, "true"):
				evictions++
			}
		}
		if !stageClosed {
			t.Errorf("seed %d: the stage was not parked on the queue when it closed", seed)
		}
	}
	// The workload must reach the cases the oracle exists for.
	if stalls == 0 || timeouts == 0 || evictions == 0 {
		t.Fatalf("coverage: %d stalled stage puts, %d expired timed puts, %d evictions", stalls, timeouts, evictions)
	}
}

// resRun drives seeded users through one Resource: each sleeps, takes
// n units for a hold and logs. form picks how the users are written: as
// processes calling Use, as continuation chains calling UseFunc, or
// every other one each. A rival process takes and returns a unit with
// Acquire/Release throughout, so continuations are admitted by a
// process's Release and processes by a continuation's.
func resRun(seed int64, capacity int, form string) contResult {
	k := NewKernel()
	var res contResult
	k.SetProfiler(&res.prof)
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%d ", int64(k.now))+fmt.Sprintf(format, args...))
	}
	r := NewResource(k, capacity)
	const users, rounds = 5, 25
	for id := 0; id < users; id++ {
		id := id
		if form == "procs" || form == "mixed" && id%2 == 1 {
			k.Go("user", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.Sleep(Time(rng.Intn(8)))
					n, d := 1+rng.Intn(capacity), Time(rng.Intn(7))
					waited := r.inUse+n > capacity || r.queue.len() > 0
					r.Use(p, n, d)
					logf("user %d used %d for %d waited %v, %d in use", id, n, int64(d), waited, r.inUse)
				}
			})
			continue
		}
		i, n, d, waited := 0, 0, Time(0), false
		var sleep, use, used func()
		sleep = func() {
			if i++; i <= rounds {
				k.After(Time(rng.Intn(8)), use)
			}
		}
		use = func() {
			n, d = 1+rng.Intn(capacity), Time(rng.Intn(7))
			waited = r.inUse+n > capacity || r.queue.len() > 0
			r.UseFunc(n, d, used)
		}
		used = func() {
			logf("user %d used %d for %d waited %v, %d in use", id, n, int64(d), waited, r.inUse)
			sleep()
		}
		k.After(0, sleep)
	}
	k.Go("rival", func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(Time(rng.Intn(10)))
			r.Acquire(p, 1)
			logf("rival acquired")
			p.Sleep(Time(rng.Intn(5)))
			r.Release(1)
		}
	})
	k.RunAll()
	if r.inUse != 0 || r.queue.len() != 0 || len(r.holds) != 0 || r.admitted.len() != 0 {
		logf("resource not idle: %d in use, %d waiting, %d holds, %d admitted", r.inUse, r.queue.len(), len(r.holds), r.admitted.len())
	}
	res.fired = k.EventsFired()
	return res
}

// UseFunc against Use, as TestContinuationOracle holds GetFunc and
// PutFunc against Get and Put: the same users as processes, as
// continuations and mixed leave the same log and event count, at unit
// capacity and above it, and the continuations do not park.
func TestResourceUseOracle(t *testing.T) {
	waits := 0
	for _, capacity := range []int{1, 2} {
		for seed := int64(1); seed <= 40; seed++ {
			proc := resRun(seed, capacity, "procs")
			for _, form := range []string{"funcs", "mixed"} {
				compareForms(t, fmt.Sprintf("resource cap %d", capacity), seed, form, proc, resRun(seed, capacity, form))
			}
			for _, line := range proc.log {
				if strings.Contains(line, "not idle") {
					t.Errorf("cap %d seed %d: %s", capacity, seed, line)
				}
				if strings.Contains(line, "waited true") {
					waits++
				}
			}
		}
	}
	if waits == 0 {
		t.Fatal("coverage: no user ever waited for the resource")
	}
}

// compareForms holds a run with some waiters written as continuations
// against the same run with all of them processes: same log, events and
// ring hits, fewer parks.
func compareForms(t *testing.T, what string, seed int64, form string, proc, fn contResult) {
	t.Helper()
	if len(proc.log) != len(fn.log) {
		t.Fatalf("%s seed %d: %d steps as processes, %d %s", what, seed, len(proc.log), len(fn.log), form)
	}
	for i := range proc.log {
		if proc.log[i] != fn.log[i] {
			t.Fatalf("%s seed %d step %d: processes %q, %s %q", what, seed, i, proc.log[i], form, fn.log[i])
		}
	}
	if proc.fired != fn.fired || proc.prof.ringHits != fn.prof.ringHits {
		t.Errorf("%s seed %d: %d events, %d ring hits as processes, %d and %d %s", what, seed,
			proc.fired, proc.prof.ringHits, fn.fired, fn.prof.ringHits, form)
	}
	if proc.prof.parks <= fn.prof.parks {
		t.Errorf("%s seed %d: %d parks as processes, %d %s", what, seed, proc.prof.parks, fn.prof.parks, form)
	}
}

// condRun drives seeded waiters on one Cond, written as processes
// calling Wait, as continuations calling WaitFunc, or every other one
// each. Half the time a waiter waits again from inside its own wake-up.
// A process in WaitTimeout, whose expiry races the broadcasts, waits
// among them in every form, and the broadcaster sometimes broadcasts a
// second time in one instant, after the waiters it woke have run.
func condRun(seed int64, form string) contResult {
	k := NewKernel()
	var res contResult
	k.SetProfiler(&res.prof)
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%d ", int64(k.now))+fmt.Sprintf(format, args...))
	}
	c := NewCond(k)
	const waiters, rounds = 5, 30
	for id := 0; id < waiters; id++ {
		id := id
		if form == "procs" || form == "mixed" && id%2 == 1 {
			k.Go("waiter", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					if rng.Intn(2) == 0 {
						p.Sleep(Time(rng.Intn(6)))
					}
					c.Wait(p)
					logf("waiter %d woke %d", id, r)
				}
			})
			continue
		}
		r := 0
		var next, wait, woke func()
		next = func() {
			if rng.Intn(2) == 0 {
				k.After(Time(rng.Intn(6)), wait)
			} else {
				wait()
			}
		}
		wait = func() { c.WaitFunc(woke) }
		woke = func() {
			logf("waiter %d woke %d", id, r)
			if r++; r < rounds {
				next()
			}
		}
		k.After(0, next)
	}
	k.Go("timed", func(p *Proc) {
		for r := 0; r < 2*rounds; r++ {
			p.Sleep(Time(rng.Intn(4)))
			logf("timed waiter %v", c.WaitTimeout(p, Time(1+rng.Intn(5))))
		}
	})
	k.Go("broadcaster", func(p *Proc) {
		for i := 0; i < 80; i++ {
			p.Sleep(Time(rng.Intn(8)))
			c.Broadcast()
			logf("broadcast")
			if rng.Intn(3) == 0 {
				p.Sleep(0)
				c.Broadcast()
				logf("broadcast again")
			}
		}
		// Release whoever still waits, so every form ends alike.
		for i := 0; i < rounds; i++ {
			p.Sleep(10)
			c.Broadcast()
		}
	})
	k.RunAll()
	res.fired = k.EventsFired()
	return res
}

// WaitFunc against Wait: the same waiters as processes, as
// continuations and mixed on one Cond leave the same log and event
// count, and the continuations do not park. A continuation run inside
// Broadcast instead of scheduled would log ahead of the broadcaster and
// fail the comparison.
func TestCondWaitFuncOracle(t *testing.T) {
	timeouts, beaten, twice := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		proc := condRun(seed, "procs")
		for _, form := range []string{"funcs", "mixed"} {
			compareForms(t, "cond", seed, form, proc, condRun(seed, form))
		}
		lastWoke := map[string]string{} // waiter -> instant of its last wake-up
		for _, line := range proc.log {
			at, what, _ := strings.Cut(line, " ")
			switch {
			case what == "timed waiter false":
				timeouts++
			case what == "timed waiter true":
				beaten++
			case strings.HasPrefix(what, "waiter"):
				who := what[:len("waiter 0")]
				if lastWoke[who] == at {
					twice++
				}
				lastWoke[who] = at
			}
		}
	}
	// The workload must reach the cases the oracle exists for.
	if timeouts == 0 || beaten == 0 || twice == 0 {
		t.Fatalf("coverage: %d expired timed waits, %d beaten by a broadcast, %d waiters woken twice in one instant",
			timeouts, beaten, twice)
	}
}

// signalRun is condRun for one-shot signals: a chain of them, each
// fired once, two of them in one instant now and then; every waiter
// waits for each in turn, sometimes at once from inside its wake-up and
// sometimes after a sleep that lets the signal fire first.
func signalRun(seed int64, form string) contResult {
	k := NewKernel()
	var res contResult
	k.SetProfiler(&res.prof)
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%d ", int64(k.now))+fmt.Sprintf(format, args...))
	}
	const waiters, chain = 5, 30
	var sigs [chain]*Signal
	for i := range sigs {
		sigs[i] = NewSignal(k)
	}
	for id := 0; id < waiters; id++ {
		id := id
		if form == "procs" || form == "mixed" && id%2 == 1 {
			k.Go("waiter", func(p *Proc) {
				for j, s := range sigs {
					if rng.Intn(2) == 0 {
						p.Sleep(Time(rng.Intn(12)))
					}
					late := s.Fired()
					logf("waiter %d signal %d late %v value %v", id, j, late, p.Wait(s))
				}
			})
			continue
		}
		j, late := 0, false
		var next, wait, woke func()
		next = func() {
			if rng.Intn(2) == 0 {
				k.After(Time(rng.Intn(12)), wait)
			} else {
				wait()
			}
		}
		wait = func() {
			late = sigs[j].Fired()
			sigs[j].WaitFunc(woke)
		}
		woke = func() {
			logf("waiter %d signal %d late %v value %v", id, j, late, sigs[j].Value())
			if j++; j < chain {
				next()
			}
		}
		k.After(0, next)
	}
	k.Go("timed", func(p *Proc) {
		for j, s := range sigs {
			v, ok := p.WaitTimeout(s, Time(1+rng.Intn(8)))
			logf("timed waiter signal %d: %v %v", j, v, ok)
			if !ok {
				p.Wait(s)
			}
		}
	})
	k.Go("firer", func(p *Proc) {
		for j := 0; j < chain; j++ {
			p.Sleep(Time(rng.Intn(8)))
			sigs[j].Fire(j)
			logf("fired %d", j)
			if j+1 < chain && rng.Intn(3) == 0 {
				p.Sleep(0)
				j++
				sigs[j].Fire(j)
				logf("fired %d too", j)
			}
		}
	})
	k.RunAll()
	res.fired = k.EventsFired()
	return res
}

func TestSignalWaitFuncOracle(t *testing.T) {
	timeouts, beaten, late, pairs := 0, 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		proc := signalRun(seed, "procs")
		for _, form := range []string{"funcs", "mixed"} {
			compareForms(t, "signal", seed, form, proc, signalRun(seed, form))
		}
		for _, line := range proc.log {
			switch {
			case strings.HasSuffix(line, "<nil> false"):
				timeouts++
			case strings.Contains(line, "timed waiter"):
				beaten++
			case strings.Contains(line, "late true"):
				late++
			case strings.HasSuffix(line, "too"):
				pairs++
			}
		}
	}
	if timeouts == 0 || beaten == 0 || late == 0 || pairs == 0 {
		t.Fatalf("coverage: %d expired timed waits, %d beaten by a fire, %d waits on a fired signal, %d signals fired in one instant with another",
			timeouts, beaten, late, pairs)
	}
}

// An identity is a name for telemetry, not a thread: handing one to a
// blocking call is a bug in the stage that owns it, reported as such
// instead of as a goroutine blocked for good on a nil channel.
func TestIdentityCannotBlock(t *testing.T) {
	k := NewKernel()
	ident, c := k.Identity("nic-engine"), NewCond(k)
	k.After(5, func() { c.Wait(ident) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `identity "nic-engine" cannot block`) {
			t.Fatalf("recovered %v", r)
		}
	}()
	k.RunAll()
	t.Fatal("an identity parked")
}

// A continuation parked on a queue that closes runs with ok false, as
// an event at the instant of the Close: where Get and Put would have
// returned false to their process.
func TestQueueCloseRunsParkedContinuations(t *testing.T) {
	k := NewKernel()
	empty := NewQueue[int](k, 0)
	full := NewQueue[int](k, 1)
	full.TryPut(1)
	var log []string
	empty.GetFunc(func(v int, ok bool) { log = append(log, fmt.Sprintf("%d get %d %v", int64(k.now), v, ok)) })
	full.PutFunc(2, func(ok bool) { log = append(log, fmt.Sprintf("%d put %v", int64(k.now), ok)) })
	k.After(30, func() {
		empty.Close()
		full.Close()
		if len(log) != 0 {
			t.Errorf("continuations ran inside Close: %v", log)
		}
	})
	k.RunAll()
	if want := []string{"30 get 0 false", "30 put false"}; len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if full.Len() != 1 {
		t.Fatalf("rejected item was buffered: len %d", full.Len())
	}
	// On a closed queue both twins answer at once.
	empty.GetFunc(func(v int, ok bool) { log = append(log, fmt.Sprint("late get ", ok)) })
	full.PutFunc(3, func(ok bool) { log = append(log, fmt.Sprint("late put ", ok)) })
	if log[2] != "late get false" || log[3] != "late put false" {
		t.Fatalf("log = %v", log)
	}
}

// The queue and resource primitives recycle their storage: steady
// state allocates nothing, whatever the depth oscillates between.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	t.Run("put-get 1 deep", func(t *testing.T) {
		q := NewQueue[int](NewKernel(), 0)
		if n := testing.AllocsPerRun(100, func() {
			q.TryPut(1)
			q.TryGet()
		}); n != 0 {
			t.Fatalf("%v allocs per put/get cycle", n)
		}
	})
	t.Run("getter park and hand-off", func(t *testing.T) {
		k := NewKernel()
		q := NewQueue[int](k, 0)
		k.Go("consumer", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		k.Go("producer", func(p *Proc) {
			for {
				q.Put(p, 1)
				p.Sleep(1) // re-park the consumer so every put is a hand-off
			}
		})
		k.Run(100)
		if n := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); n != 0 {
			t.Fatalf("%v allocs per 10 park + hand-off cycles", n)
		}
	})
	t.Run("continuation park and hand-off", func(t *testing.T) {
		k := NewKernel()
		q := NewQueue[int](k, 0)
		var got func(int, bool)
		got = func(int, bool) { q.GetFunc(got) }
		q.GetFunc(got)
		k.Go("producer", func(p *Proc) {
			for {
				q.Put(p, 1)
				p.Sleep(1)
			}
		})
		k.Run(100)
		if n := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); n != 0 {
			t.Fatalf("%v allocs per 10 continuation hand-offs", n)
		}
	})
	for _, users := range []int{1, 3} {
		t.Run(fmt.Sprintf("Resource.UseFunc, %d users", users), func(t *testing.T) {
			k := NewKernel()
			r := NewResource(k, 1)
			for i := 0; i < users; i++ {
				var again func()
				again = func() { r.UseFunc(1, 2, again) }
				again()
			}
			k.Run(100)
			if n := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); n != 0 {
				t.Fatalf("%v allocs per 5 uses", n)
			}
		})
	}
	t.Run("Cond.WaitFunc and Broadcast", func(t *testing.T) {
		k := NewKernel()
		c := NewCond(k)
		for i := 0; i < 3; i++ {
			var again func()
			again = func() { c.WaitFunc(again) }
			again()
		}
		k.Go("broadcaster", func(p *Proc) {
			for {
				p.Sleep(1)
				c.Broadcast()
			}
		})
		k.Run(100)
		if n := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); n != 0 {
			t.Fatalf("%v allocs per 10 broadcasts to 3 continuations", n)
		}
	})
	t.Run("Signal.WaitFunc on a fired signal", func(t *testing.T) {
		s := NewSignal(NewKernel())
		s.Fire(nil)
		ran := 0
		fn := func() { ran++ }
		if n := testing.AllocsPerRun(100, func() { s.WaitFunc(fn) }); n != 0 || ran == 0 {
			t.Fatalf("%v allocs per wait, continuation ran %d times", n, ran)
		}
	})
	t.Run("contended Resource.Use", func(t *testing.T) {
		k := NewKernel()
		r := NewResource(k, 1)
		for i := 0; i < 3; i++ {
			k.Go("user", func(p *Proc) {
				for {
					r.Use(p, 1, 2)
				}
			})
		}
		k.Run(100)
		if n := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 10) }); n != 0 {
			t.Fatalf("%v allocs per 5 contended uses", n)
		}
	})
}

// fifo is the storage under every queue: order survives wrap-around,
// compaction and removal from the middle, and the backing array stops
// growing once it holds the peak depth.
func TestFifoKeepsOrderAndCapacity(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	pop := func() {
		t.Helper()
		if got := f.pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
		want++
	}
	for round := 0; round < 1000; round++ {
		for f.len() < 5+round%3 { // never drains: the head only moves by compaction
			f.push(next)
			next++
		}
		pop()
		pop()
	}
	if cap(f.buf) > 32 {
		t.Fatalf("backing array grew to %d for a depth of 7", cap(f.buf))
	}
	for f.len() < 6 {
		f.push(next)
		next++
	}
	for i, v := range f.live() {
		if v != want+i {
			t.Fatalf("live()[%d] = %d, want %d", i, v, want+i)
		}
	}
	f.removeAt(2)
	if got := f.live(); got[1] != want+1 || got[2] != want+3 {
		t.Fatalf("after removeAt(2): %v", got)
	}
	f.removeAt(0)
	if got := f.live(); got[0] != want+1 {
		t.Fatalf("after removeAt(0): %v", got)
	}
}
