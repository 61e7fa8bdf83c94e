package sim

import "fmt"

// Proc is a simulation process: a goroutine that cooperates with the
// kernel so that exactly one goroutine, the baton holder, runs at a
// time. Procs are created with Kernel.Go and must only call their
// blocking methods (Sleep, Wait, ...) from their own goroutine.
type Proc struct {
	k      *Kernel
	name   string
	id     uint64
	resume chan any
	parked bool
	done   bool
	term   *Signal // fired on termination with the proc's result

	// Wait-generation state. A proc waits on at most one signal or
	// condition at a time; wgen numbers that wait so competing wakers
	// (a signal fire racing a timed-wait expiry, or a stale waiter
	// list from an abandoned wait) resolve deterministically: the
	// first matching evWake wins and flips wcanceled.
	wgen      uint64
	wcanceled bool

	// span is the process's current telemetry span (see monitor.go).
	span SpanID
}

// beginWait opens a new wait generation and returns its number.
func (p *Proc) beginWait() uint64 {
	p.wgen++
	p.wcanceled = false
	return p.wgen
}

// Go starts fn as a new process at the current time. The name is used
// only for diagnostics.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAfter(0, name, fn)
}

// GoAfter starts fn as a new process d from now.
func (k *Kernel) GoAfter(d Time, name string, fn func(p *Proc)) *Proc {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	p := &Proc{
		k:      k,
		name:   name,
		id:     k.nextID,
		resume: make(chan any),
		parked: true, // a fresh proc waits for its first activation
	}
	p.term = NewSignal(k)
	k.nextID++
	k.spawned++
	k.procs++
	go func() {
		<-p.resume // first activation
		p.parked = false
		fn(p)
		p.done = true
		k.procs--
		p.term.Fire(nil)
		k.drive(p) // an exiting process still holds the baton
	}()
	k.atDispatch(k.now+d, p, nil)
	return p
}

// Identity returns a process that is a name and a spawn id and nothing
// more: no goroutine, never dispatched, not counted as spawned, and
// handing it to a blocking call panics. A stage that runs as
// continuations keeps one so that its telemetry spans stay on a thread
// of their own (ID, Name, MonSpan), the thread the process it replaced
// gave them: the id is the one Go would have claimed in its place.
func (k *Kernel) Identity(name string) *Proc {
	p := &Proc{k: k, name: name, id: k.nextID}
	k.nextID++
	return p
}

// park blocks the process until its next wake-up and returns the
// value that carries. The process keeps the baton and runs the event
// loop itself; it blocks on resume only once the baton has gone to
// another process or home.
func (p *Proc) park() any {
	if p.resume == nil {
		panic(fmt.Sprintf("sim: identity %q cannot block", p.name))
	}
	p.parked = true
	v, woke := p.k.drive(p)
	if !woke {
		v = <-p.resume
	}
	p.parked = false
	return v
}

// Name reports the diagnostic name of the process.
func (p *Proc) Name() string { return p.name }

// Kernel reports the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Term returns a signal fired when the process terminates; waiting on
// it joins the process.
func (p *Proc) Term() *Signal { return p.term }

// Sleep blocks the process for d of virtual time. Zero-length sleeps
// still go through the event queue so that they act as a yield
// point with deterministic ordering.
func (p *Proc) Sleep(d Time) { p.sleepOn(d, edgeSleep) }

// sleepOn is Sleep with the park attributed to a specific profiler
// edge; labeled resources route their hold-sleeps through it so the
// ledger charges the park to the resource, not to "sim/sleep".
func (p *Proc) sleepOn(d Time, edge string) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.atDispatch(p.k.now+d, p, nil)
	p.parkOn(edge)
}

// Wait blocks until the signal fires and returns the fired value. If
// the signal already fired it returns immediately.
func (p *Proc) Wait(s *Signal) any {
	if s.fired {
		return s.value
	}
	s.waiters = append(s.waiters, waiterRef{p: p, gen: p.beginWait()})
	return p.parkOn(s.label)
}

// timeoutSentinel is delivered to a proc when a timed wait expires.
type timeoutSentinel struct{}

// WaitTimeout blocks until the signal fires or d elapses. ok reports
// whether the signal fired (true) as opposed to the timeout expiring.
func (p *Proc) WaitTimeout(s *Signal, d Time) (v any, ok bool) {
	if s.fired {
		return s.value, true
	}
	gen := p.beginWait()
	s.waiters = append(s.waiters, waiterRef{p: p, gen: gen})
	t := p.k.atWake(p.k.now+d, p, gen, timeoutSentinel{})
	got := p.parkOn(s.label)
	if _, isTimeout := got.(timeoutSentinel); isTimeout {
		return nil, false
	}
	t.Stop()
	return got, true
}

// Join blocks until q terminates. Joining an already-terminated
// process returns immediately.
func (p *Proc) Join(q *Proc) { p.Wait(q.term) }
