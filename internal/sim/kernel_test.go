package sim

import (
	"fmt"
	"testing"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestKernelBreaksTiesInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.RunAll()
	if at != 150 {
		t.Fatalf("fired at %v, want 150", at)
	}
}

func TestKernelHorizonStopsClock(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(1000, func() { fired = true })
	end := k.Run(500)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 500 {
		t.Fatalf("end = %v, want 500", end)
	}
	// Continuing past the horizon fires the event.
	k.RunAll()
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestKernelHorizonNeverRewindsClock(t *testing.T) {
	k := NewKernel()
	k.At(1000, func() {})
	k.Run(150)
	if end := k.Run(50); end != 150 || k.Now() != 150 {
		t.Fatalf("Run(50) after Run(150): end %v, Now %v; want 150ns", end, k.Now())
	}
	// Scheduling relative to the clock still works after the short run.
	fired := Time(-1)
	k.After(10, func() { fired = k.Now() })
	k.Run(200)
	if fired != 160 {
		t.Fatalf("After(10) fired at %v, want 160ns", fired)
	}
}

func TestKernelRunReentrantPanics(t *testing.T) {
	k := NewKernel()
	k.At(1, func() { k.RunAll() })
	k.At(2, func() {})
	r := recovered(func() { k.RunAll() })
	if r != "sim: Run called re-entrantly" {
		t.Fatalf("nested Run panicked with %v", r)
	}
	// The flag is cleared on the way out, so the kernel is still usable.
	if end := k.RunAll(); end != 2 {
		t.Fatalf("Run after the panic ended at %v, want 2ns", end)
	}
}

func TestKernelStopHaltsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	k.At(1, func() { count++; k.Stop() })
	k.At(2, func() { count++ })
	k.RunAll()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	k.RunAll()
	if count != 2 {
		t.Fatalf("count after resume = %d, want 2", count)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.RunAll()
}

func TestTimerStopCancelsEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop reported false for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	k.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(25 * Microsecond)
		wake = p.Now()
	})
	k.RunAll()
	if wake != 25*Microsecond {
		t.Fatalf("woke at %v, want 25us", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	k.RunAll()
	want := []Time{10, 20, 30}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.RunAll()
	// a runs first (spawned first), yields at Sleep(0), then b runs,
	// then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcJoinWaitsForTermination(t *testing.T) {
	k := NewKernel()
	var joinedAt Time
	worker := k.Go("worker", func(p *Proc) { p.Sleep(100) })
	k.Go("joiner", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	k.RunAll()
	if joinedAt != 100 {
		t.Fatalf("joined at %v, want 100", joinedAt)
	}
	if !worker.Done() {
		t.Fatal("worker not done")
	}
}

func TestProcJoinTerminatedReturnsImmediately(t *testing.T) {
	k := NewKernel()
	worker := k.Go("worker", func(p *Proc) {})
	var joinedAt Time = -1
	k.GoAfter(50, "joiner", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	k.RunAll()
	if joinedAt != 50 {
		t.Fatalf("joined at %v, want 50", joinedAt)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			v := p.Wait(s)
			if v.(string) != "hello" {
				t.Errorf("waiter %d got %v", i, v)
			}
			woke[i] = p.Now()
		})
	}
	k.GoAfter(40, "firer", func(p *Proc) { s.Fire("hello") })
	k.RunAll()
	for i, w := range woke {
		if w != 40 {
			t.Fatalf("waiter %d woke at %v, want 40", i, w)
		}
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Fire(7)
	var got any
	k.Go("w", func(p *Proc) { got = p.Wait(s) })
	k.RunAll()
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Error("double fire did not panic")
		}
	}()
	s.Fire(nil)
}

func TestWaitTimeoutExpires(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var ok bool
	var at Time
	k.Go("w", func(p *Proc) {
		_, ok = p.WaitTimeout(s, 30)
		at = p.Now()
	})
	k.RunAll()
	if ok {
		t.Fatal("timed-out wait reported ok")
	}
	if at != 30 {
		t.Fatalf("woke at %v, want 30", at)
	}
}

func TestWaitTimeoutSignalBeatsTimer(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var ok bool
	var got any
	k.Go("w", func(p *Proc) { got, ok = p.WaitTimeout(s, 100) })
	k.GoAfter(10, "f", func(p *Proc) { s.Fire("v") })
	k.RunAll()
	if !ok || got != "v" {
		t.Fatalf("got %v ok=%v, want v true", got, ok)
	}
	// The canceled timeout timer must not fire anything later.
	if k.Pending() != 0 {
		k.RunAll()
	}
}

func TestBarrierReleasesOnLastArrival(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, 3)
	var woke Time
	k.Go("waiter", func(p *Proc) {
		b.Wait(p)
		woke = p.Now()
	})
	for i := 0; i < 3; i++ {
		d := Time((i + 1) * 10)
		k.GoAfter(d, "arriver", func(p *Proc) { b.Arrive() })
	}
	k.RunAll()
	if woke != 30 {
		t.Fatalf("barrier released at %v, want 30", woke)
	}
	if b.Remaining() != 0 {
		t.Fatalf("remaining = %d", b.Remaining())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		var log []string
		k := NewKernel()
		q := NewQueue[int](k, 2)
		for i := 0; i < 3; i++ {
			i := i
			k.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					q.Put(p, i*10+j)
					p.Sleep(Time(3 + i))
				}
			})
		}
		k.Go("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				log = append(log, fmt.Sprintf("%d@%d", v, p.Now()))
				p.Sleep(2)
				if len(log) == 15 {
					q.Close()
				}
			}
		})
		k.RunAll()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
