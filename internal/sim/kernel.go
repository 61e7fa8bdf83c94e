package sim

import "fmt"

// Event kinds. Most scheduled work is a process wake-up, not an
// arbitrary callback; giving wake-ups their own kinds lets the hot
// paths (Sleep, queue hand-off, signal fire) schedule without
// allocating a closure per event.
const (
	// evFunc runs fn().
	evFunc = iota
	// evDispatch resumes proc with val unconditionally.
	evDispatch
	// evWake resumes proc with val only if the proc's wait generation
	// still matches wgen and no other waker got there first. Signal
	// fire and timed-wait expiry race through this kind.
	evWake
)

// event is a scheduled callback or process wake-up. Events are pooled
// per kernel: gen increments on every recycle so a stale Timer handle
// can never cancel the event's next incarnation.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	gen uint64

	kind uint8
	// canceled events stay queued but are skipped when popped; the
	// ladder absorbs them wholesale when a bucket or the top is
	// transferred, and the kernel compacts when they pile up.
	canceled bool

	fn   func() // evFunc
	proc *Proc  // evDispatch, evWake
	val  any    // evDispatch, evWake
	wgen uint64 // evWake
}

// Timer is a handle to a scheduled callback that can be stopped. The
// zero value is an inert timer: Stop reports false, Pending reports
// false.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint64
}

// Stop cancels the timer. It is safe to call after the timer fired, in
// which case it reports false.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	t.k.ncanceled++
	t.k.maybeCompact()
	return true
}

// Pending reports whether the timer is armed: scheduled, not yet
// fired, not stopped.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; create kernels with NewKernel.
//
// Scheduled events live in two structures ordered by (at, seq): a
// FIFO ring for events at exactly the current instant, and a ladder
// queue (see ladder.go) for everything later. The ring is the fast
// path: a same-time event is appended and popped with no ordering
// work at all.
type Kernel struct {
	now     Time
	pool    []*event // recycled events
	seq     uint64
	stopped bool

	// same-virtual-time spill ring: events at k.now, FIFO from nowHead.
	nowq    []*event
	nowHead int

	// ladder queue state (ladder.go).
	bottom   []*event // sorted run, popped from bhead
	bhead    int
	rungs    []*rung
	rungPool []*rung
	top      []*event // unsorted overflow, at >= topStart
	topStart Time
	topMin   Time
	topMax   Time
	lsize    int // events in bottom+rungs+top, including canceled

	// ncanceled counts canceled events still queued (ring + ladder);
	// when they outnumber live events the structures are compacted so
	// long-running kernels that arm and stop many timers don't grow
	// unboundedly.
	ncanceled int

	// The baton: whichever goroutine holds it runs the event loop (see
	// drive). home is where it comes back to Run; one slot, so the
	// holder never waits for Run to get there. panicked carries home
	// the value of a panic raised while a proc's goroutine held it.
	home     chan struct{}
	panicked any
	running  bool // inside Run
	horizon  Time // of the current Run, 0 for none
	procs    int  // live (started, not terminated) processes

	// stats
	fired   uint64
	spawned uint64
	nextID  uint64 // of the next Proc: spawned, plus identities claimed

	// optional telemetry monitor (see monitor.go)
	mon Monitor
	// optional scheduler profiler (see profiler.go)
	prof Profiler
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{home: make(chan struct{}, 1)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired reports the number of events executed so far.
func (k *Kernel) EventsFired() uint64 { return k.fired }

// ProcsSpawned reports the number of processes ever started.
func (k *Kernel) ProcsSpawned() uint64 { return k.spawned }

// newEvent takes an event from the pool (or allocates one), stamps it
// with absolute time t and the next seq, and routes it into the ring
// or the ladder. Scheduling in the past panics: that is always a
// modelling bug.
func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	var e *event
	if n := len(k.pool); n > 0 {
		e = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		e = &event{}
	}
	e.at = t
	e.seq = k.seq
	k.seq++
	k.schedule(e)
	return e
}

// releaseEvent recycles a popped event. The generation bump invalidates
// every Timer handle pointing at it.
func (k *Kernel) releaseEvent(e *event) {
	e.gen++
	e.canceled = false
	e.fn = nil
	e.proc = nil
	e.val = nil
	e.wgen = 0
	k.pool = append(k.pool, e)
}

// At schedules fn to run at absolute time t. fn runs in event context
// on whichever goroutine holds the baton then (see drive), often a
// parked process's rather than Run's caller's, so it must not rely on
// goroutine identity (runtime.Goexit, and with it t.FailNow, included).
func (k *Kernel) At(t Time, fn func()) Timer {
	e := k.newEvent(t)
	e.kind = evFunc
	e.fn = fn
	return Timer{k: k, ev: e, gen: e.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// atDispatch schedules an unconditional wake-up of p carrying v.
func (k *Kernel) atDispatch(t Time, p *Proc, v any) {
	e := k.newEvent(t)
	e.kind = evDispatch
	e.proc = p
	e.val = v
}

// atWake schedules a conditional wake-up of p carrying v, valid only
// while p's wait generation is still wgen.
func (k *Kernel) atWake(t Time, p *Proc, wgen uint64, v any) Timer {
	e := k.newEvent(t)
	e.kind = evWake
	e.proc = p
	e.val = v
	e.wgen = wgen
	return Timer{k: k, ev: e, gen: e.gen}
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty, Stop is called, or
// until (when horizon > 0) the clock would pass the horizon; the clock
// then advances to the horizon, never back. It reports the time at
// which it stopped. Processes still blocked when Run returns stay
// parked, and a later Run resumes them when their wake-up fires; those
// never woken are never freed either: their goroutines, and all they
// reach, live until the Go process exits. Only the application's
// threads are processes, though: a stage that waits as a continuation
// (the adapters, a kernel TCP stack and its connections) has no
// goroutine, and one that never runs is garbage once its kernel is.
//
// Run starts the event loop on the caller's goroutine and then waits
// for the baton to come home (see drive). It must not be called from
// a process or an event handler.
func (k *Kernel) Run(horizon Time) Time {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	k.stopped = false
	k.horizon = horizon
	k.drive(nil)
	<-k.home
	if r := k.panicked; r != nil {
		k.panicked = nil
		panic(r)
	}
	return k.now
}

// drive runs the event loop on the calling goroutine, which holds the
// baton: self is the process parking or exiting on it, nil on Run's
// own goroutine. Handlers run inline. A wake-up for self ends the loop
// with no goroutine switch at all: drive returns its value and the
// process carries on. A wake-up for another process costs one switch:
// drive sends it the baton on its resume channel and returns, and the
// caller blocks on its own. When the queue is empty, Stop was called
// or the horizon is reached, the baton goes home to Run.
//
// A panic raised by a handler or a dispatch check while a process's
// goroutine holds the baton goes home as well, and Run re-raises it on
// its caller's goroutine, where runner.Map or a test can recover it.
func (k *Kernel) drive(self *Proc) (v any, woke bool) {
	if self != nil {
		defer func() {
			if r := recover(); r != nil {
				k.panicked = r
				k.home <- struct{}{}
			}
		}()
	}
	for !k.stopped {
		e := k.peekNext()
		if e == nil {
			break
		}
		if k.horizon > 0 && e.at > k.horizon {
			if k.horizon > k.now {
				k.now = k.horizon
			}
			break
		}
		fromRing := k.popNext(e)
		if e.canceled {
			k.ncanceled--
			k.releaseEvent(e)
			continue
		}
		k.now = e.at
		k.fired++
		if fromRing {
			if pr := k.prof; pr != nil {
				pr.RingHit(k.now)
			}
		}
		// Recycle before executing: the handler may schedule new
		// events (reusing this object is then fine — its fields are
		// already copied out) and a Stop on this event's timer during
		// execution must be a no-op on the next incarnation.
		kind, fn, proc, val, wgen := e.kind, e.fn, e.proc, e.val, e.wgen
		k.releaseEvent(e)
		switch kind {
		case evFunc:
			fn()
			continue
		case evWake:
			if proc.wgen != wgen || proc.wcanceled {
				continue
			}
			proc.wcanceled = true
		}
		if proc.done {
			panic(fmt.Sprintf("sim: dispatch to terminated proc %q", proc.name))
		}
		if !proc.parked {
			panic(fmt.Sprintf("sim: dispatch to running proc %q", proc.name))
		}
		if proc == self {
			return val, true
		}
		proc.resume <- val
		return nil, false
	}
	k.home <- struct{}{}
	return nil, false
}

// RunAll runs with no horizon.
func (k *Kernel) RunAll() Time { return k.Run(0) }

// Pending reports the number of scheduled (possibly canceled) events.
func (k *Kernel) Pending() int { return len(k.nowq) - k.nowHead + k.lsize }

// Live reports the number of scheduled events that have not been
// canceled — the events that would still fire if the kernel kept
// running. A positive count after Run returned at its horizon means
// the simulation had not quiesced (watchdogs use this to flag
// virtual-time livelock).
func (k *Kernel) Live() int { return k.Pending() - k.ncanceled }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
