package sim

// SpanID identifies one causal span within a Monitor. The zero value
// means "no span" and is used both as the root parent and as the
// return value when span collection is disabled.
type SpanID uint64

// Monitor receives telemetry callbacks from instrumented components:
// typed metric updates and causal span begin/end pairs, all stamped
// with virtual time. It is the one stream through which components
// report their events. The kernel holds at most one monitor and every
// call site is nil-checked, so with no monitor attached the hot paths
// pay one pointer load per event and allocate nothing.
//
// Implementations must be passive observers: they may not advance the
// clock, schedule events, or otherwise perturb the simulation, so that
// attaching a monitor never changes a figure.
type Monitor interface {
	// Count adds delta to the named counter of a component.
	Count(at Time, component, name string, delta int64)
	// Gauge records the latest value of the named component gauge.
	Gauge(at Time, component, name string, value int64)
	// Observe adds one virtual-time sample to the named component
	// histogram.
	Observe(at Time, component, name string, v Time)
	// SpanBegin opens a causal span and returns its id, or zero when
	// span collection is disabled. proc is the process the span runs
	// on (nil in kernel/event context); parent links the span into the
	// cause tree.
	SpanBegin(at Time, proc *Proc, component, name, detail string, parent SpanID) SpanID
	// SpanEnd closes a span opened by SpanBegin. Zero ids are ignored.
	SpanEnd(at Time, id SpanID)
	// Instant records a zero-duration event (a retransmit firing, a
	// copy failing over) attached to the proc's current span, if any.
	Instant(at Time, proc *Proc, component, name, detail string)
}

// SetMonitor attaches (or with nil detaches) a telemetry monitor.
func (k *Kernel) SetMonitor(m Monitor) { k.mon = m }

// Monitor reports the attached monitor, nil when telemetry is off.
// Components nil-check it, through hpsmon's helpers, and guard any
// dynamically built detail string behind the check.
func (k *Kernel) Monitor() Monitor { return k.mon }

// MonSpan reports the process's current span (zero outside any span).
// New spans begun on this process use it as their parent.
func (p *Proc) MonSpan() SpanID { return p.span }

// SetMonSpan replaces the process's current span, returning control of
// parent linkage to telemetry scopes; callers must restore the
// previous value when their span ends.
func (p *Proc) SetMonSpan(id SpanID) { p.span = id }

// ID reports the process's spawn-order index, which is deterministic
// and unique within a kernel; telemetry uses it as the thread id of
// exported spans.
func (p *Proc) ID() uint64 { return p.id }
