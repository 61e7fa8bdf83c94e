package sim

// Park-edge labels used by the kernel's own primitives when the
// constructing component does not claim a more specific name via
// SetLabel. Components should label every queue, signal, condition,
// resource and serializer they build (see DESIGN.md §15 for the
// registry) so park-ledger lines attribute scheduler traffic to a
// subsystem edge rather than a generic primitive.
const (
	edgeSleep      = "sim/sleep"
	edgeQueue      = "sim/queue"
	edgeSignal     = "sim/signal"
	edgeCond       = "sim/cond"
	edgeResource   = "sim/resource"
	edgeSerializer = "sim/serializer"
)

// Profiler receives scheduler-attribution callbacks from the kernel:
// every process park and the wake that ends it (tagged with the label
// of the edge parked on), every direct queue hand-off to an
// already-parked getter, and every event popped from the same-instant
// spill ring. Like the telemetry monitor, the kernel holds at most one
// profiler and every call site is nil-checked, so with no profiler
// attached the hot paths pay one pointer load per park and allocate
// nothing.
//
// Implementations must be passive observers: they may not advance the
// clock, schedule events, or otherwise perturb the simulation, so
// that attaching a profiler never changes a figure. Edge labels are
// compile-time constants at every call site; implementations may key
// maps on them without copying.
type Profiler interface {
	// Park records that p is parking on the labeled edge at the given
	// virtual time.
	Park(at Time, p *Proc, edge string)
	// Wake records that p, previously parked on the labeled edge,
	// resumed at the given virtual time. A wake at the same instant as
	// its park is a zero-delay rendezvous — a trip through the event
	// loop, and a goroutine switch unless the process's own wake-up
	// was next, that advanced the clock by nothing.
	Wake(at Time, p *Proc, edge string)
	// Handoff records a queue Put that bypassed buffering and handed
	// its item directly to a parked getter.
	Handoff(at Time, edge string)
	// RingHit records an event popped from the same-instant spill ring
	// rather than the ladder.
	RingHit(at Time)
}

// SetProfiler attaches (or with nil detaches) a scheduler profiler.
func (k *Kernel) SetProfiler(pr Profiler) { k.prof = pr }

// Profiler reports the attached profiler, nil when profiling is off.
// Call sites nil-check it exactly like the monitor.
func (k *Kernel) Profiler() Profiler { return k.prof }

// parkOn is park with profiler attribution: the edge label names the
// queue, signal, condition or resource the process is blocking on.
// All blocking primitives park through here so the profiler sees
// every park exactly once.
func (p *Proc) parkOn(edge string) any {
	if pr := p.k.prof; pr != nil {
		pr.Park(p.k.now, p, edge)
	}
	v := p.park()
	if pr := p.k.prof; pr != nil {
		pr.Wake(p.k.now, p, edge)
	}
	return v
}
