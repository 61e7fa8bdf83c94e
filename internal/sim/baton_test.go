package sim

import (
	"runtime"
	"strings"
	"testing"

	"hpsockets/internal/runner"
)

// batonHolder names the goroutine the caller runs on: "park" for a
// process driving the event loop from inside a park, "exit" for one
// driving it after its function returned, "run" for Run's own.
func batonHolder() string {
	buf := make([]byte, 8<<10)
	stack := string(buf[:runtime.Stack(buf, false)])
	switch {
	case strings.Contains(stack, "sim.(*Proc).park"):
		return "park"
	case strings.Contains(stack, "sim.(*Kernel).GoAfter.func"):
		return "exit"
	}
	return "run"
}

// recovered runs fn and returns what it panicked with, nil if nothing.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// Handlers run on whichever goroutine holds the baton: Run's until the
// first process is dispatched, then the parked or exiting process's.
func TestBatonHandlersRunOnTheHolder(t *testing.T) {
	k := NewKernel()
	var at []string
	note := func() { at = append(at, batonHolder()) }
	k.At(0, note) // before any proc ran
	k.Go("sleeper", func(p *Proc) { p.Sleep(10) })
	k.At(5, note)  // while the sleeper is parked
	k.At(20, note) // after it exited with nothing else to wake
	k.RunAll()
	if got, want := strings.Join(at, " "), "run park exit"; got != want {
		t.Fatalf("handlers ran on %q, want %q", got, want)
	}
}

// Panics raised inside the event loop while a process holds the baton
// must come out of Run on the caller's goroutine, and so out of
// runner.Map on its caller: nothing above the kernel recovers on
// process goroutines.
func TestBatonPanicSurfacesFromRun(t *testing.T) {
	cases := []struct {
		name  string
		want  string
		build func(k *Kernel, holder *string)
	}{
		{"handler", "boom", func(k *Kernel, holder *string) {
			k.Go("sleeper", func(p *Proc) { p.Sleep(10) })
			k.At(5, func() {
				*holder = batonHolder()
				panic("boom")
			})
		}},
		{"dispatch to terminated proc", `sim: dispatch to terminated proc "gone"`, func(k *Kernel, holder *string) {
			gone := k.Go("gone", func(p *Proc) {})
			k.Go("sleeper", func(p *Proc) {
				*holder = "park" // the sleeper pops the stray wake-up from its park
				p.Sleep(10)
			})
			k.atDispatch(5, gone, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var holder string
			tc.build(k, &holder)
			if r := recovered(func() { k.RunAll() }); r != tc.want {
				t.Fatalf("Run panicked with %v, want %q", r, tc.want)
			}
			if holder != "park" {
				t.Fatalf("panic raised with the baton at %q, want a parked proc", holder)
			}
			if k.running {
				t.Fatal("running flag left set after the panic")
			}
			r := recovered(func() {
				runner.Map(4, 8, func(i int) {
					k := NewKernel()
					var holder string
					if i == 5 {
						tc.build(k, &holder)
					}
					k.Go("work", func(p *Proc) { p.Sleep(20) })
					k.RunAll()
				})
			})
			if r != tc.want {
				t.Fatalf("runner.Map panicked with %v, want %q", r, tc.want)
			}
		})
	}
}

// An exiting process still holds the baton and must pass it on,
// whatever comes next.
func TestBatonExitingProcHandsOn(t *testing.T) {
	t.Run("handler next", func(t *testing.T) {
		k := NewKernel()
		var holder string
		k.Go("a", func(p *Proc) {
			k.After(5, func() { holder = batonHolder() })
		})
		if end := k.RunAll(); end != 5 || holder != "exit" {
			t.Fatalf("end %v, handler ran on %q; want 5ns on the exiting proc", end, holder)
		}
	})
	t.Run("proc next", func(t *testing.T) {
		k := NewKernel()
		var woke Time
		k.Go("b", func(p *Proc) {
			p.Sleep(5)
			woke = p.Now()
		})
		a := k.Go("a", func(p *Proc) {}) // exits while b sleeps
		if end := k.RunAll(); end != 5 || woke != 5 || !a.Done() {
			t.Fatalf("end %v, b woke at %v, a done %v", end, woke, a.Done())
		}
	})
	t.Run("nothing next", func(t *testing.T) {
		k := NewKernel()
		a := k.GoAfter(3, "a", func(p *Proc) {})
		if end := k.RunAll(); end != 3 || !a.Done() || k.Pending() != 0 {
			t.Fatalf("end %v, a done %v, pending %d", end, a.Done(), k.Pending())
		}
		// The baton came home: the kernel runs again.
		k.After(4, func() {})
		if end := k.RunAll(); end != 7 {
			t.Fatalf("second run ended at %v, want 7ns", end)
		}
	})
}

// A process that finds the loop over (horizon, Stop) sends the baton
// home and stays parked; the next Run resumes it.
func TestBatonParkedAtLoopEndResumes(t *testing.T) {
	k := NewKernel()
	var woke []Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100) // parks past the first horizon
		woke = append(woke, p.Now())
		k.Stop()
		p.Sleep(100) // parks with the run stopped
		woke = append(woke, p.Now())
	})
	if end := k.Run(50); end != 50 || len(woke) != 0 {
		t.Fatalf("first run: end %v, woke %v", end, woke)
	}
	if end := k.RunAll(); end != 100 || len(woke) != 1 {
		t.Fatalf("second run: end %v, woke %v", end, woke)
	}
	if end := k.RunAll(); end != 200 || len(woke) != 2 || woke[1] != 200 {
		t.Fatalf("third run: end %v, woke %v", end, woke)
	}
}
