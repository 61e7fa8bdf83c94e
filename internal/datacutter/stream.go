package datacutter

import (
	"errors"
	"io"

	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// ErrNoLiveCopies reports that every transparent copy of a stream's
// consumer filter has failed, leaving nowhere to dispatch work.
var ErrNoLiveCopies = errors.New("datacutter: no live consumer copies")

// errRedispatched is an internal marker: the buffer's copy failed
// mid-send and the buffer re-entered the backlog for redispatch.
var errRedispatched = errors.New("datacutter: buffer redispatched")

// numShedCauses sizes the per-cause shed counters.
const numShedCauses = int(ShedLost) + 1

// targetState is where a consumer copy stands in the writer's view.
// install makes a target live and failTarget makes it failed; nothing
// else assigns it (DESIGN.md §8, "Stream lifecycle").
type targetState uint8

const (
	targetConnecting targetState = iota // the initial dial has not completed
	targetLive                          // connected: the writer routes to it
	targetFailed                        // retired, its in-flight work reclaimed; a redial or rejoin revives it
)

// sentBuf is one buffer sent and not yet acknowledged, with its unit of
// work (re-dispatch drops entries from units the writer has finished).
type sentBuf struct {
	buf    *Buffer
	uow    int
	sentAt sim.Time
}

// sentFIFO queues sentBufs in send order. A window that never quite
// drains neither re-allocates nor pins acknowledged buffers.
type sentFIFO struct {
	q    []sentBuf
	head int
}

func (f *sentFIFO) len() int { return len(f.q) - f.head }

func (f *sentFIFO) push(e sentBuf) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, e)
}

func (f *sentFIFO) pop() sentBuf {
	e := f.q[f.head]
	f.q[f.head] = sentBuf{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return e
}

// target is the writer's end of the connection to one transparent
// consumer copy: its lifecycle state, the generation of the connection
// it currently holds, and what that connection still owes.
type target struct {
	state targetState
	// gen counts the connections install has given this target. An ack
	// reader or a queued rejoin request captures it to learn later
	// whether its connection is still the current one.
	gen  uint64
	conn core.Conn

	// raddr and svc name the consumer copy's endpoint, kept so the
	// connection can be re-established.
	raddr string
	svc   int

	// credits is the remaining flow-control window on this connection
	// (meaningful when the stream's CreditWindow is armed). A data
	// send consumes one; the consumer returns it when the buffer
	// leaves its inbox.
	credits int

	// inflight holds the sent-but-unacknowledged buffers, kept only on
	// acknowledged streams. Its length is the demand-driven policy's
	// unacknowledged count, its head's age the ack latency (acks arrive
	// in send order on a connection), and a failed copy's outstanding
	// work moves from it to the writer's backlog whole.
	inflight sentFIFO

	sent         uint64
	ackLatencies []sim.Time
}

// settled reports whether the connection owes the writer nothing.
func (w *StreamWriter) settled(t *target) bool {
	return t.inflight.len() == 0 && (w.spec.CreditWindow <= 0 || t.credits >= w.spec.CreditWindow)
}

// StreamWriter is a producer copy's handle on a logical stream: it
// distributes buffers among the transparent copies of the consumer,
// one target each, routes around failed targets and re-dispatches what
// they still owed. It runs on the producing filter's process, except
// the ack readers (a process each) and requestRejoin (kernel callback).
type StreamWriter struct {
	spec    StreamSpec
	targets []*target
	rr      int
	uow     int
	closed  bool
	// ackCond is broadcast whenever the reverse path moves: an ack or a
	// credit arrives, a copy fails, a restarted copy asks to rejoin.
	ackCond *sim.Cond
	// backlog holds buffers reclaimed from failed copies, waiting to be
	// re-dispatched; redispatched counts those re-sent.
	backlog      sentFIFO
	redispatched uint64

	// Redial support: ep is the producer's endpoint, redialPol the
	// backoff policy (Attempts > 0 arms it).
	ep           core.Endpoint
	redialPol    core.RetryPolicy
	redialRounds int
	redials      uint64

	// Exactly-once support: seqSrc is the per-stream delivery sequence
	// counter shared by every producer copy; each data buffer is
	// stamped once, at first send, so re-dispatched duplicates carry
	// the same sequence and the consumer-side ledger can suppress them.
	seqSrc *uint64

	// rejoinReqs queues restarted consumer copies waiting to be
	// re-admitted; tryRejoin drains it from proc context.
	rejoinReqs []rejoinReq

	shedSend uint64
	degraded uint64
}

// Redispatched reports how many buffers were re-sent to a surviving
// copy after a consumer failure.
func (w *StreamWriter) Redispatched() uint64 { return w.redispatched }

// ShedAtSend reports how many buffers the writer shed because their
// deadline had expired before they could be sent.
func (w *StreamWriter) ShedAtSend() uint64 { return w.shedSend }

// DegradedAtSend reports how many buffers were sent at reduced
// resolution by the DegradeQuality policy.
func (w *StreamWriter) DegradedAtSend() uint64 { return w.degraded }

// Redials reports how many connections the writer re-established.
func (w *StreamWriter) Redials() uint64 { return w.redials }

// hdrSize is the stream's fixed forward-path framing size: the base
// header plus the deadline and exactly-once extensions when armed.
func (ss *StreamSpec) hdrSize() int {
	n := headerSize
	if ss.Deadlines {
		n += 8
	}
	if ss.ExactlyOnce {
		n += 8
	}
	return n
}

// acked reports whether deliveries are acknowledged, which failover
// re-dispatch requires to know what a failed copy still had outstanding.
func (ss *StreamSpec) acked() bool { return ss.Policy == DemandDriven || ss.Acks }

// reverse reports whether connections carry acks or credits back; each
// then needs an ack reader process on the producer side.
func (ss *StreamSpec) reverse() bool { return ss.acked() || ss.CreditWindow > 0 }

// waitAck parks the writer until the reverse path moves (see ackCond).
// stalled is the copy the writer awaits a credit from, if any: with an
// op timeout armed, a copy that returns none within the bound is failed
// over instead of stalling the producer forever — the reverse path may
// be silently gone (e.g. the consumer timed out its ack sends during a
// partition).
func (w *StreamWriter) waitAck(p *sim.Proc, stalled *target) {
	if stalled == nil || w.spec.CreditWindow <= 0 || w.spec.OpTimeout <= 0 {
		w.ackCond.Wait(p)
	} else if !w.ackCond.WaitTimeout(p, w.spec.OpTimeout) {
		w.failTarget(p, stalled) // a credit stall timed out
	}
}

// WaitQuiesce blocks until the stream has fully drained: every live
// target has no unacknowledged buffer (when acks are armed) and its
// credit window fully returned (when credits are armed), and the
// re-dispatch backlog is empty. Producers call it before Close so no
// buffer's fate is left undecided: an in-flight buffer either gets
// acknowledged, or its connection breaks — surfacing here, where the
// ack reader can still reclaim it (after Close it retires quietly) —
// and the reclaimed entry is flushed, which re-dispatches it or sheds
// it as lost. Without the wait, a consumer that tears down a stalled
// connection after the producer closed would take the sent-but-unacked
// buffers with it, unaccounted. A credit lost in transit either
// arrives eventually (kernel TCP retransmits) or breaks the
// connection, whose failed target is then excused — a wait that never
// returns is a flow-control leak, which is exactly what the chaos
// watchdog flags. Returns the flush error, if any.
func (w *StreamWriter) WaitQuiesce(p *sim.Proc) error {
	for {
		w.tryRejoin(p)
		if err := w.flushBacklog(p); err != nil {
			return err
		}
		settled := true
		for _, t := range w.targets {
			if t.state == targetLive && !w.settled(t) {
				settled = false
			}
		}
		if settled {
			return nil
		}
		w.waitAck(p, nil)
	}
}

// CreditState reports the remaining credits and liveness of one target
// connection, for flow-control invariant checks (credit conservation:
// at quiesce every live connection is back at the full window).
func (w *StreamWriter) CreditState(target int) (credits int, dead bool) {
	t := w.targets[target]
	return t.credits, t.state != targetLive
}

// LiveTargets reports how many consumer copies are still reachable.
func (w *StreamWriter) LiveTargets() int {
	n := 0
	for _, t := range w.targets {
		if t.state == targetLive {
			n++
		}
	}
	return n
}

// Targets reports the number of consumer copies.
func (w *StreamWriter) Targets() int { return len(w.targets) }

// Sent reports per-target buffer counts.
func (w *StreamWriter) Sent() []uint64 {
	out := make([]uint64, len(w.targets))
	for i, t := range w.targets {
		out[i] = t.sent
	}
	return out
}

// AckLatencies returns the recorded send-to-ack latencies for one
// target copy (requires StreamSpec.RecordAckLatency).
func (w *StreamWriter) AckLatencies(target int) []sim.Time {
	return w.targets[target].ackLatencies
}

// choose picks the next buffer's destination without blocking: the next
// live copy in turn, or the live copy with the fewest unacknowledged
// buffers among those inside their demand window and holding a credit.
// first is the lowest live copy, nil when none survive.
func (w *StreamWriter) choose() (best, first *target) {
	switch w.spec.Policy {
	case RoundRobin:
		for range w.targets {
			t := w.targets[w.rr]
			w.rr = (w.rr + 1) % len(w.targets)
			if t.state == targetLive {
				return t, t
			}
		}
		return nil, nil
	case DemandDriven:
		for _, t := range w.targets {
			if t.state != targetLive {
				continue
			}
			if first == nil {
				first = t
			}
			if w.spec.MaxUnacked > 0 && t.inflight.len() >= w.spec.MaxUnacked {
				continue
			}
			if w.spec.CreditWindow > 0 && t.credits == 0 {
				continue
			}
			if best == nil || t.inflight.len() < best.inflight.len() {
				best = t
			}
		}
		return best, first
	}
	panic("datacutter: unknown policy")
}

// pick chooses the destination copy for the next buffer, blocking
// under demand-driven routing while every live copy is at its demand
// window (or out of credits); a credit stall that outlasts the op
// timeout fails the lowest live copy over (a deterministic victim).
// When no copy survives it attempts redial (if armed) and returns nil
// once that too is exhausted.
func (w *StreamWriter) pick(p *sim.Proc) *target {
	for {
		w.tryRejoin(p)
		best, first := w.choose()
		switch {
		case best != nil:
			return best
		case first != nil:
			w.waitAck(p, first)
		case !w.tryRedial(p):
			return nil
		}
	}
}

// maxRedialRounds bounds how many times a writer re-enters redial:
// recovery is a bounded mechanism, not an infinite retry loop, so a
// consumer that keeps dying cannot livelock virtual time.
const maxRedialRounds = 16

// tryRedial re-establishes the connection to one failed consumer copy
// (lowest index first). It reports whether a copy was restored; a
// fully failed round disarms further redial so exhausted writers fail
// fast with ErrNoLiveCopies instead of paying the backoff per buffer.
func (w *StreamWriter) tryRedial(p *sim.Proc) bool {
	if w.redialPol.Attempts <= 0 || w.redialRounds >= maxRedialRounds {
		return false
	}
	w.redialRounds++
	for j, t := range w.targets {
		if t.state == targetFailed && w.reconnect(p, j, false) {
			return true
		}
	}
	w.redialRounds = maxRedialRounds
	return false
}

// rejoinReq is one queued rejoin request: which consumer copy, and the
// generation of the connection the writer held to it when its node
// restarted (so the writer can tell a stale pre-restart connection from
// one already re-established afterwards).
type rejoinReq struct {
	target int
	gen    uint64
}

// requestRejoin queues a restarted consumer copy for re-admission and
// wakes any writer parked at the demand window. Called from the
// restart hook (kernel-callback context), so it must not block; the
// redial itself happens in tryRejoin, from writer proc context. It
// reports whether the writer will attempt the rejoin (false once the
// stream is closed — the restarted copy then has nothing to wait for).
func (w *StreamWriter) requestRejoin(target int) bool {
	if w.closed {
		return false
	}
	for _, req := range w.rejoinReqs {
		if req.target == target {
			return true
		}
	}
	w.rejoinReqs = append(w.rejoinReqs, rejoinReq{target: target, gen: w.targets[target].gen})
	w.ackCond.Broadcast()
	return true
}

// tryRejoin re-admits each queued restarted consumer copy: it
// reconnects with a resync message (see reconnect) and restores the
// copy into the routing set. A failed redial drops the request: the
// consumer side's rejoin grace deadline completes the copy vacuously
// instead. Unlike tryRedial, rejoin is not subject to the redial-round
// budget — it runs once per restart event, driven by the fault plan,
// not by a retry loop.
func (w *StreamWriter) tryRejoin(p *sim.Proc) {
	for len(w.rejoinReqs) > 0 {
		req := w.rejoinReqs[0]
		w.rejoinReqs = w.rejoinReqs[1:]
		t := w.targets[req.target]
		if t.state == targetLive {
			if t.gen != req.gen {
				// The redial path already re-established this connection
				// after the restart — it just never announced the writer's
				// position. Send the resync on the live connection so the
				// restarted reader can fast-forward.
				w.resync(p, t)
				continue
			}
			// The rejoin request outran the writer's own crash detection:
			// the consumer restarted, so a connection predating the
			// restart is stale even though no send has failed on it yet —
			// the incarnation holding its other end is gone. Retire it,
			// reclaiming its outstanding work, and rejoin below.
			w.failTarget(p, t)
		}
		w.reconnect(p, req.target, true)
	}
}

// resync announces the writer's current unit of work to a restarted
// reader, so it fast-forwards past units it can no longer complete.
func (w *StreamWriter) resync(p *sim.Proc, t *target) bool {
	hdr := make([]byte, w.spec.hdrSize())
	putHeader(hdr, wireResync, 0, w.uow, 0, 0)
	if err := t.conn.Send(p, hdr); err != nil {
		w.failTarget(p, t)
		return false
	}
	return true
}

// reconnect re-establishes the connection to failed consumer copy j
// through the core.Redial backoff and installs it, for tryRedial or —
// with the resync message a restarted reader waits for — tryRejoin. It
// reports whether the copy is live again.
func (w *StreamWriter) reconnect(p *sim.Proc, j int, rejoin bool) bool {
	t := w.targets[j]
	c, err := core.Redial(p, w.ep, t.raddr, t.svc, w.redialPol)
	if err != nil {
		return false
	}
	w.install(t, c)
	if rejoin && !w.resync(p, t) {
		return false
	}
	w.redials++
	ackProc := "dc-ack-redial/"
	if rejoin {
		ackProc = "dc-ack-rejoin/"
		hpsmon.Count(p.Kernel(), "datacutter", "rejoins", 1)
		hpsmon.Instant(p, "datacutter", "rejoin", w.spec.Name)
	} else {
		hpsmon.Instant(p, "datacutter", "redial", w.spec.Name)
	}
	if w.spec.reverse() {
		p.Kernel().Go(ackProc+w.spec.Name, w.ackReaderLoop(t))
	}
	return true
}

// install makes c the target's connection — the initial dial, a redial
// and a rejoin all end here — and the target live, with a full credit
// window and nothing in flight (failTarget emptied it).
func (w *StreamWriter) install(t *target, c core.Conn) {
	// Arm the per-operation deadline on every connection, fresh or
	// replacement: the replacement must detect the next stall exactly
	// like the original did, or a second fault blocks the writer forever.
	if w.spec.OpTimeout > 0 {
		c.SetTimeout(w.spec.OpTimeout)
	}
	t.conn = c
	t.gen++
	t.state = targetLive
	t.credits = w.spec.CreditWindow
}

// shedAtSend applies the producer-side deadline check: an expired
// buffer is shed (Drop policies) or degraded to a partial update
// (DegradeQuality). It reports whether the buffer was shed and must
// not be sent.
func (w *StreamWriter) shedAtSend(p *sim.Proc, buf *Buffer) bool {
	if !w.spec.Deadlines || w.spec.Shed == Block || buf.Deadline == 0 || p.Now() < buf.Deadline {
		return false
	}
	if w.spec.Shed == DegradeQuality {
		if !buf.Degraded {
			buf.Degraded = true
			if buf.Size > 1 {
				buf.Size >>= degradeShift
				if buf.Size == 0 {
					buf.Size = 1
				}
				if buf.Data != nil {
					buf.Data = buf.Data[:buf.Size]
				}
			}
			w.degraded++
			hpsmon.Count(p.Kernel(), "datacutter", "shed.degraded", 1)
			hpsmon.Instant(p, "datacutter", "degrade", w.spec.Name)
		}
		return false
	}
	w.shedSend++
	hpsmon.Count(p.Kernel(), "datacutter", "shed.expired", 1)
	hpsmon.Instant(p, "datacutter", "shed-expired", w.spec.Name)
	if w.spec.OnShed != nil {
		w.spec.OnShed(buf, ShedExpired)
	}
	return true
}

// awaitCredit blocks until the target has send credit or fails. It
// reports whether the target is still live.
func (w *StreamWriter) awaitCredit(p *sim.Proc, t *target) bool {
	if w.spec.CreditWindow <= 0 || t.credits > 0 {
		return t.state == targetLive
	}
	sc := hpsmon.Begin(p, "datacutter", "credit-stall", w.spec.Name)
	hpsmon.Count(p.Kernel(), "datacutter", "credit.stalls", 1)
	for t.credits == 0 && t.state == targetLive {
		w.waitAck(p, t)
	}
	sc.End()
	return t.state == targetLive
}

// Write sends a buffer to one consumer copy chosen by the stream's
// policy. It blocks until the transport has buffered the bytes (and,
// with credits armed, until the chosen copy grants a credit). When a
// copy's connection fails mid-send, the copy is failed over and the
// buffer (plus, on acknowledged streams, the copy's unacknowledged
// backlog) is re-dispatched to a survivor; Write fails with
// ErrNoLiveCopies only once every copy is gone and redial (if armed)
// exhausted. Deadline-expired buffers are shed or degraded per the
// stream's ShedPolicy instead of being sent.
func (w *StreamWriter) Write(p *sim.Proc, buf *Buffer) error {
	if w.closed {
		panic("datacutter: write on closed stream " + w.spec.Name)
	}
	w.checkDeadline(buf)
	if err := w.flushBacklog(p); err != nil {
		return err
	}
	err := w.dispatch(p, buf)
	if err == errRedispatched {
		// The buffer joined the backlog via the failed copy's in-flight
		// list; flush re-dispatches it with the rest.
		return w.flushBacklog(p)
	}
	return err
}

// dispatch routes one buffer: shed check, copy choice, credit wait,
// transport send, failover on error.
func (w *StreamWriter) dispatch(p *sim.Proc, buf *Buffer) error {
	for {
		if w.shedAtSend(p, buf) {
			return nil
		}
		t := w.pick(p)
		if t == nil {
			return ErrNoLiveCopies
		}
		if !w.awaitCredit(p, t) {
			continue // the copy died while we stalled; re-pick
		}
		if w.shedAtSend(p, buf) {
			return nil // the deadline expired during the credit stall
		}
		err := w.writeTo(p, t, buf)
		if err == nil {
			return nil
		}
		w.failTarget(p, t)
		if w.spec.acked() {
			return errRedispatched
		}
	}
}

// checkDeadline rejects deadline-carrying buffers on streams that were
// not armed for them: the wire framing would silently drop the field.
func (w *StreamWriter) checkDeadline(buf *Buffer) {
	if buf.Deadline != 0 && !w.spec.Deadlines {
		panic("datacutter: buffer with deadline on stream " + w.spec.Name +
			" without StreamSpec.Deadlines")
	}
}

// WriteTo sends a buffer to an explicit consumer copy, for application
// level schedulers that bypass the built-in policies. Shed policies
// and credits apply exactly as in Write; there is no failover, so a
// copy that has failed (or fails during the credit wait) is reported
// as core.ErrConnClosed with nothing sent or booked.
func (w *StreamWriter) WriteTo(p *sim.Proc, target int, buf *Buffer) error {
	w.checkDeadline(buf)
	if w.shedAtSend(p, buf) {
		return nil
	}
	t := w.targets[target]
	if !w.awaitCredit(p, t) {
		return core.ErrConnClosed
	}
	if w.shedAtSend(p, buf) {
		return nil
	}
	return w.writeTo(p, t, buf)
}

func (w *StreamWriter) writeTo(p *sim.Proc, t *target, buf *Buffer) error {
	var flags uint8
	if buf.Data != nil {
		flags |= flagReal
		if len(buf.Data) != buf.Size {
			panic("datacutter: buffer data/size mismatch")
		}
	}
	if buf.Degraded {
		flags |= flagDegraded
	}
	hdr := make([]byte, w.spec.hdrSize())
	putHeader(hdr, wireData, flags, w.uow, buf.Size, buf.Tag)
	if w.spec.Deadlines {
		putDeadline(hdr, buf.Deadline)
	}
	if w.seqSrc != nil {
		if buf.seq == 0 {
			*w.seqSrc++
			buf.seq = *w.seqSrc
		}
		putSeq(hdr, buf.seq)
	}
	hpsmon.Count(p.Kernel(), "datacutter", "buffers.out", 1)
	hpsmon.Count(p.Kernel(), "datacutter", "bytes.out", int64(buf.Size))
	sc := hpsmon.Begin(p, "datacutter", "stream-send", w.spec.Name)
	hpsmon.FlowSend(p, w.spec.Name, w.uow, buf.Tag)
	t.sent++
	if w.spec.CreditWindow > 0 {
		t.credits--
	}
	if w.spec.acked() {
		t.inflight.push(sentBuf{buf: buf, uow: w.uow, sentAt: p.Now()})
	}
	err := t.conn.Send(p, hdr)
	if err == nil {
		if buf.Data != nil {
			err = t.conn.Send(p, buf.Data)
		} else {
			err = t.conn.SendSize(p, buf.Size)
		}
	}
	sc.End()
	return err
}

// failTarget retires a copy's connection, reclaims its unacknowledged
// buffers into the backlog and wakes any writer blocked at the demand
// window. Idempotent: loops that race to report the same broken
// connection converge on one failover.
func (w *StreamWriter) failTarget(p *sim.Proc, t *target) {
	if t.state != targetLive {
		return
	}
	t.state = targetFailed
	hpsmon.Instant(p, "datacutter", "copy-fail", w.spec.Name)
	for t.inflight.len() > 0 {
		w.backlog.push(t.inflight.pop())
	}
	w.ackCond.Broadcast()
	// Abortive close in spirit: the writer must never block draining
	// data to a copy it has declared dead. A crash-restarted consumer
	// revives the peer's transport stack but not the superseded reader
	// incarnation, so the peer keeps acking without consuming — the
	// receive window closes and a graceful close can wedge forever
	// behind undeliverable bytes. Park the drain in a reaper proc
	// instead; the writer moves straight on to failover or rejoin.
	conn := t.conn
	p.Kernel().Go("dc-conn-reap/"+w.spec.Name, func(p *sim.Proc) {
		conn.Close(p)
	})
}

// flushBacklog re-dispatches buffers reclaimed from failed copies.
// Entries from units of work the writer already finished are dropped —
// that work is lost, recorded as a uow-lost instant — because re-sending them
// after their end-of-work marker would corrupt UOW accounting.
func (w *StreamWriter) flushBacklog(p *sim.Proc) error {
	for w.backlog.len() > 0 {
		e := w.backlog.pop()
		if e.uow != w.uow {
			hpsmon.Instant(p, "datacutter", "uow-lost", w.spec.Name)
			if w.spec.OnShed != nil {
				w.spec.OnShed(e.buf, ShedLost)
			}
			continue
		}
		err := w.dispatch(p, e.buf)
		switch err {
		case nil:
			w.redispatched++
			hpsmon.Count(p.Kernel(), "datacutter", "redispatched", 1)
		case errRedispatched:
			// The entry returned to the backlog through the failed
			// copy's in-flight list; keep draining.
			continue
		default:
			return err
		}
	}
	return nil
}

// EndOfWork broadcasts the end-of-work marker for the current unit of
// work to every surviving consumer copy and advances the writer to the
// next one. Outstanding re-dispatch backlog flushes first so reclaimed
// buffers stay inside their unit of work. Markers are control traffic:
// they consume no credit, so a credit-starved stream still makes
// progress through its unit-of-work boundaries.
func (w *StreamWriter) EndOfWork(p *sim.Proc) error {
	w.tryRejoin(p)
	if err := w.flushBacklog(p); err != nil {
		return err
	}
	hdr := make([]byte, w.spec.hdrSize())
	putHeader(hdr, wireEOW, 0, w.uow, 0, 0)
	live := 0
	for _, t := range w.targets {
		if t.state != targetLive {
			continue
		}
		if err := t.conn.Send(p, append([]byte(nil), hdr...)); err != nil {
			w.failTarget(p, t)
			continue
		}
		live++
	}
	w.uow++
	hpsmon.Count(p.Kernel(), "datacutter", "eow.out", int64(live))
	if live == 0 {
		return ErrNoLiveCopies
	}
	return nil
}

// Close shuts down the stream's connections.
func (w *StreamWriter) Close(p *sim.Proc) {
	if w.closed {
		return
	}
	w.closed = true
	for _, t := range w.targets {
		t.conn.Close(p)
	}
}

// ackReaderLoop runs on the producer side of each connection of an
// acknowledged or credit-armed stream, absorbing acks and returned
// credits. A failed or garbled reverse stream fails the copy over
// instead of panicking: under fault injection a broken or corrupted
// connection is an operating condition, not a protocol bug.
func (w *StreamWriter) ackReaderLoop(t *target) func(p *sim.Proc) {
	// Pin the loop to the connection it was spawned for: a restart
	// rejoin (or redial) replaces t.conn while this loop is parked in
	// RecvFull on the old one, and resurrects the target — so neither
	// w.closed nor the target's state identifies the loop as stale.
	// Without the pin, the old loop's eventual timeout would fail the
	// fresh connection over and wedge the writer in a redial livelock.
	gen, c := t.gen, t.conn
	return func(p *sim.Proc) {
		hdr := make([]byte, headerSize)
		for {
			_, err := c.RecvFull(p, hdr)
			if t.gen != gen {
				return // the target moved on to a new connection
			}
			if err != nil {
				// The writer's own shutdown (or a target already failed
				// over) retires the loop quietly — checked first, or the
				// idle-timeout re-arm below would tick forever on a
				// closed stream.
				if w.closed || t.state != targetLive {
					return
				}
				if errors.Is(err, core.ErrTimeout) && w.settled(t) {
					// An armed op timeout on a connection that owes us
					// nothing: the reverse path is idle, not stalled
					// (demand-driven routing can starve a copy of sends
					// for longer than the timeout). Keep listening.
					continue
				}
				// Any other error — including a peer-side close, the
				// consumer tearing down a connection it declared lost —
				// must fail the copy over here, or its unacknowledged
				// buffers are never reclaimed: the demand-driven picker
				// would avoid the high-unacked connection forever and
				// never discover the breakage.
				w.failTarget(p, t)
				return
			}
			kind, _, _, _, _ := parseHeader(hdr)
			switch kind {
			case wireAck:
				if t.inflight.len() > 0 {
					// Acks arrive in send order, so the head is acked.
					e := t.inflight.pop()
					if w.spec.RecordAckLatency {
						t.ackLatencies = append(t.ackLatencies, p.Now()-e.sentAt)
					}
				}
			case wireCredit:
				if w.spec.CreditWindow <= 0 || t.credits >= w.spec.CreditWindow {
					w.failTarget(p, t) // more credits than the window
					return
				}
				t.credits++
			default:
				w.failTarget(p, t) // a garbled reverse-stream message
				return
			}
			w.ackCond.Broadcast()
		}
	}
}

// inbound is the reader's end of one producer connection; buffers
// remember the one they arrived on so acks and credits route back.
type inbound struct {
	conn core.Conn
	dead bool // given up on: torn down, or found unreachable by an ack
}

type itemKind uint8

const (
	itemData   itemKind = iota
	itemEOW             // end-of-work marker for unit of work uow
	itemResync          // a rejoining producer announced its current uow
	itemLost            // the producer connection behind this slot ended
	itemRejoin          // a redialed producer connection came back
)

// inboxItem is one delivered stream element on the consumer side.
type inboxItem struct {
	kind itemKind
	buf  *Buffer
	uow  int // for eow/resync markers: the unit of work they carry
}

// incarnation is what a restart of the reader's filter copy forgets.
// resetForRejoin replaces it wholesale and every connReaderLoop feeds
// the one it was started under: a connection that predates a restart
// keeps putting into the old, closed inbox, which swallows the puts, so
// its markers cannot leak into the new incarnation's accounting.
type incarnation struct {
	inbox *sim.Queue[inboxItem]
	// nconns counts the producer connections whose end-of-work markers
	// the reader expects; wired, the original ones (already in nconns)
	// yet to start their loop — later ones are replacements and announce
	// themselves with a rejoin marker; open, those still feeding a
	// stream without redial, whose inbox closes with the last.
	nconns, wired, open int
	// eowSeen counts end-of-work markers per unit of work: a fast
	// producer may deliver its next-UOW marker while a straggler is
	// still finishing the current one.
	eowSeen map[int]int
	uow     int
	stash   []*Buffer // buffers that arrived for a future unit of work

	// Set on the incarnations a restart creates (see resetForRejoin).
	awaitRejoin int       // rejoin markers the incarnation still expects
	resyncTo    int       // fast-forward target uow announced by resync messages
	graceTimer  sim.Timer // rejoin grace deadline; stopped when rejoins complete
	recoverNote func()    // first-delivery callback
}

func newIncarnation(k *sim.Kernel, depth, nconns, uow int) *incarnation {
	inc := &incarnation{
		inbox:  sim.NewQueue[inboxItem](k, depth),
		nconns: nconns, wired: nconns, open: nconns,
		eowSeen: make(map[int]int),
		uow:     uow, resyncTo: uow,
	}
	inc.inbox.SetLabel("datacutter/inbox")
	return inc
}

// StreamReader is a consumer copy's handle on a logical stream,
// merging the connections from all producer copies into one inbox.
// What a crash-restart loses is in the embedded incarnation.
type StreamReader struct {
	spec StreamSpec
	*incarnation

	// Exactly-once support: ledger holds the sequences delivered on
	// the logical stream, shared by every consumer copy — failover
	// re-dispatch crosses copies, so a per-copy ledger could not
	// suppress a buffer re-dispatched from a dead copy to a survivor.
	// Sequence numbers are writer-assigned, start at 1 and are unique
	// per buffer, so membership is exactly "this buffer was already
	// delivered". duplicates counts suppressed redeliveries.
	ledger     map[uint64]struct{}
	duplicates uint64

	depth int // inbox capacity, kept for the next incarnation

	received uint64
	shed     [numShedCauses]uint64
}

// Received reports the number of data buffers delivered to the filter.
func (r *StreamReader) Received() uint64 { return r.received }

// Duplicates reports how many redeliveries the exactly-once ledger
// suppressed.
func (r *StreamReader) Duplicates() uint64 { return r.duplicates }

// ShedTotal reports the total consumer-side shed count.
func (r *StreamReader) ShedTotal() uint64 {
	var n uint64
	for _, c := range r.shed {
		n += c
	}
	return n
}

// Read returns the next buffer of the current unit of work. ok is
// false when the unit of work is complete (all producer copies sent
// their end-of-work markers) or the stream closed; the reader then
// advances to the next unit of work. Under the demand-driven policy,
// Read acknowledges the buffer to its producer — the "consumer begins
// processing" signal of the paper.
func (r *StreamReader) Read(p *sim.Proc) (*Buffer, bool) {
	sc := hpsmon.Begin(p, "datacutter", "stream-read", r.spec.Name)
	defer sc.End()
	for {
		b, ok := r.next(p)
		if !ok {
			return nil, false
		}
		if _, dup := r.ledger[b.seq]; dup {
			r.suppressDup(p, b)
			continue
		}
		if r.staleDrop(b, p.Now()) {
			r.shedBuf(p, b, ShedStale)
			continue
		}
		r.deliver(p, b)
		return b, true
	}
}

// suppressDup retires a redelivered buffer the exactly-once ledger has
// already seen: it acknowledges and returns the credit exactly as a
// delivery would — the re-dispatching producer's bookkeeping must
// drain — but the filter never sees the buffer and no delivery counter
// moves.
func (r *StreamReader) suppressDup(p *sim.Proc, b *Buffer) {
	r.duplicates++
	hpsmon.Count(p.Kernel(), "datacutter", "dup.suppressed", 1)
	hpsmon.Instant(p, "datacutter", "dup-suppressed", r.spec.Name)
	r.returnCredit(p, b)
	r.ack(p, b)
}

// staleDrop reports whether a buffer should be shed because it reached
// the consumer after its deadline (Drop policies only: DegradeQuality
// still delivers — a late partial update beats nothing, and the
// producer already reduced it).
func (r *StreamReader) staleDrop(b *Buffer, now sim.Time) bool {
	if r.spec.Shed != DropOldest && r.spec.Shed != DropNewest {
		return false
	}
	return b.Deadline > 0 && now > b.Deadline
}

// advance ends the current unit of work and moves on to the next.
func (r *StreamReader) advance() (*Buffer, bool) {
	delete(r.eowSeen, r.uow)
	r.uow++
	return nil, false
}

// next produces the next data buffer of the current unit of work,
// without delivering it.
func (r *StreamReader) next(p *sim.Proc) (*Buffer, bool) {
	if r.uow < r.resyncTo {
		// A rejoining producer announced it is already past this unit
		// of work: its data and end-of-work markers can no longer
		// arrive. Complete the unit vacuously and advance — this is
		// the restarted copy replaying from its checkpoint up to the
		// producers' live position.
		return r.advance()
	}
	// Serve buffers that arrived early for what is now the current UOW.
	for i, b := range r.stash {
		if b.UOW == r.uow {
			r.stash = append(r.stash[:i], r.stash[i+1:]...)
			return b, true
		}
	}
	for {
		if r.nconns <= 0 && r.awaitRejoin <= 0 {
			// Every producer connection is gone: data for this unit of
			// work cannot arrive, so don't park on an inbox nobody
			// feeds. Only a redial rejoin (already queued) revives the
			// stream.
			item, ok := r.inbox.TryGet()
			if !ok {
				return nil, false
			}
			if item.kind == itemRejoin {
				r.noteRejoin(p)
			}
			continue
		}
		// With awaitRejoin > 0 a restarted incarnation parks here even
		// before any connection exists: the rejoin markers are on their
		// way, and the grace deadline closes the inbox if they never
		// arrive.
		item, ok := r.inbox.Get(p)
		if !ok {
			return nil, false // stream closed
		}
		switch item.kind {
		case itemRejoin:
			r.noteRejoin(p)
		case itemResync:
			if item.uow > r.resyncTo {
				r.resyncTo = item.uow
			}
			if r.uow < r.resyncTo {
				return r.advance()
			}
		case itemLost:
			// A producer connection ended; stop waiting for its
			// end-of-work markers. The current unit of work may now be
			// complete with one fewer expected marker.
			r.nconns--
			hpsmon.Count(p.Kernel(), "datacutter", "producers.lost", 1)
			if r.nconns <= 0 {
				return nil, false
			}
			if r.eowSeen[r.uow] >= r.nconns {
				return r.advance()
			}
		case itemEOW:
			r.eowSeen[item.uow]++
			if r.eowSeen[r.uow] >= r.nconns {
				return r.advance()
			}
		case itemData:
			switch {
			case item.buf.UOW == r.uow:
				return item.buf, true
			case item.buf.UOW > r.uow:
				r.stash = append(r.stash, item.buf)
			default:
				// Late redelivery for a unit of work this reader already
				// declared complete (its connections were lost at the
				// time): the work is gone; account it and move on.
				r.shedBuf(p, item.buf, ShedLost)
			}
		}
	}
}

// noteRejoin admits one rejoining producer connection: expect its
// end-of-work markers again, and when a restarted incarnation has now
// heard from every producer it was waiting for, disarm the rejoin
// grace deadline.
func (r *StreamReader) noteRejoin(p *sim.Proc) {
	r.nconns++
	hpsmon.Count(p.Kernel(), "datacutter", "producers.rejoined", 1)
	if r.awaitRejoin > 0 {
		r.awaitRejoin--
		if r.awaitRejoin == 0 {
			r.graceTimer.Stop()
		}
	}
}

// deliver counts the buffer, returns its flow-control credit and
// acknowledges it when the stream's policy calls for acks.
func (r *StreamReader) deliver(p *sim.Proc, b *Buffer) {
	if r.ledger != nil && b.seq != 0 {
		r.ledger[b.seq] = struct{}{}
	}
	if r.recoverNote != nil {
		r.recoverNote()
		r.recoverNote = nil
	}
	if r.spec.OnDeliver != nil {
		r.spec.OnDeliver(b)
	}
	r.received++
	hpsmon.Count(p.Kernel(), "datacutter", "buffers.in", 1)
	hpsmon.Count(p.Kernel(), "datacutter", "bytes.in", int64(b.Size))
	hpsmon.FlowRecv(p, r.spec.Name, b.UOW, b.Tag)
	r.returnCredit(p, b)
	r.ack(p, b)
}

// ack acknowledges a buffer to its producer when the stream's policy
// calls for acks.
func (r *StreamReader) ack(p *sim.Proc, b *Buffer) {
	if r.spec.acked() {
		r.sendReverse(p, b, wireAck)
	}
}

// returnCredit hands the buffer's flow-control credit back to its
// producer. Credits return when the buffer leaves the inbox — whether
// into the filter or shed — so the window never leaks.
func (r *StreamReader) returnCredit(p *sim.Proc, b *Buffer) {
	if r.spec.CreditWindow > 0 {
		r.sendReverse(p, b, wireCredit)
	}
}

// sendReverse sends a reverse-path message on a buffer's connection.
func (r *StreamReader) sendReverse(p *sim.Proc, b *Buffer, kind uint8) {
	if b.src == nil || b.src.dead {
		return
	}
	hdr := make([]byte, headerSize)
	putHeader(hdr, kind, 0, b.UOW, 0, 0)
	if err := b.src.conn.Send(p, hdr); err != nil {
		// The producer is unreachable; it will fail this copy over
		// on its own side. Mark the conn so later acks are skipped.
		b.src.dead = true
	}
}

// shedBuf accounts one consumer-side shed buffer and returns its
// credit.
func (r *StreamReader) shedBuf(p *sim.Proc, b *Buffer, cause ShedCause) {
	r.shed[cause]++
	switch cause {
	case ShedOldest:
		hpsmon.Count(p.Kernel(), "datacutter", "shed.oldest", 1)
		hpsmon.Instant(p, "datacutter", "shed-oldest", r.spec.Name)
	case ShedNewest:
		hpsmon.Count(p.Kernel(), "datacutter", "shed.newest", 1)
		hpsmon.Instant(p, "datacutter", "shed-newest", r.spec.Name)
	case ShedLost:
		hpsmon.Count(p.Kernel(), "datacutter", "shed.lost", 1)
		hpsmon.Instant(p, "datacutter", "shed-lost", r.spec.Name)
	default:
		hpsmon.Count(p.Kernel(), "datacutter", "shed.stale", 1)
		hpsmon.Instant(p, "datacutter", "shed-stale", r.spec.Name)
	}
	if r.spec.OnShed != nil {
		r.spec.OnShed(b, cause)
	}
	r.returnCredit(p, b)
}

// admit places an arriving data buffer into the given inbox under the
// stream's shed policy. Control markers always use a blocking put:
// they are never shed. The inbox is passed explicitly because a stale
// connection keeps feeding the incarnation it was started under.
func (r *StreamReader) admit(p *sim.Proc, inbox *sim.Queue[inboxItem], buf *Buffer) {
	item := inboxItem{kind: itemData, buf: buf}
	switch r.spec.Shed {
	case DropOldest:
		for !inbox.TryPut(item) {
			old, ok := inbox.Evict(func(it inboxItem) bool { return it.kind == itemData })
			if !ok {
				// Only control markers are buffered; wait for space.
				inbox.Put(p, item)
				return
			}
			r.shedBuf(p, old.buf, ShedOldest)
		}
	case DropNewest, DegradeQuality:
		// Wait at most the buffer's remaining deadline budget for a
		// slot; without a deadline the put is non-blocking.
		var wait sim.Time
		if buf.Deadline > 0 {
			wait = buf.Deadline - p.Now()
		}
		if !inbox.PutTimeout(p, item, wait) {
			r.shedBuf(p, buf, ShedNewest)
		}
	default:
		inbox.Put(p, item)
	}
}

// connReaderLoop parses one inbound connection into the inbox of the
// reader's current incarnation. A clean EOF (the producer closed after
// its final end-of-work marker) just retires the connection; a broken
// transport or a garbled header (possible under injected corruption)
// additionally enqueues a lost marker so the reader stops expecting
// end-of-work markers from this producer. On redial-armed streams a
// replacement connection announces itself with a rejoin marker first,
// and conn termination never closes the shared inbox (lost markers
// carry the accounting instead); otherwise the inbox closes with the
// last connection.
func (r *StreamReader) connReaderLoop(sc *inbound) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		inc := r.incarnation
		inbox := inc.inbox
		if inc.wired > 0 {
			inc.wired--
		} else {
			inbox.Put(p, inboxItem{kind: itemRejoin})
		}
		// On a redial-armed stream even a clean close — orderly shutdown
		// or failover teardown — means the producer is gone: the lost
		// marker makes the reader stop expecting its end-of-work markers
		// (a rejoin restores the count), or a sink waiting on a
		// failed-over connection would park forever.
		retire := func(p *sim.Proc, broken bool) {
			lost := broken || r.spec.RedialAttempts > 0
			if lost {
				sc.dead = true
			}
			if broken {
				// Tear the connection down fully: a half-open connection
				// (consumer timed out, producer side still healthy) would
				// let the producer keep sending into a void — the close
				// surfaces as a send/ack error over there and triggers
				// failover, so the in-flight buffers are re-dispatched
				// instead of silently vanishing.
				sc.conn.Close(p)
			}
			if lost {
				inbox.Put(p, inboxItem{kind: itemLost})
			}
			if r.spec.RedialAttempts <= 0 {
				if inc.open--; inc.open == 0 {
					inbox.Close()
				}
			}
		}
		hdr := make([]byte, r.spec.hdrSize())
		var scratch [32 * 1024]byte
		for {
			if _, err := sc.conn.RecvFull(p, hdr); err != nil {
				retire(p, !errors.Is(err, io.EOF))
				return
			}
			kind, flags, uow, size, tag := parseHeader(hdr)
			switch kind {
			case wireEOW:
				inbox.Put(p, inboxItem{kind: itemEOW, uow: uow})
			case wireResync:
				inbox.Put(p, inboxItem{kind: itemResync, uow: uow})
			case wireData:
				buf := &Buffer{UOW: uow, Size: size, Tag: tag, src: sc}
				if r.spec.Deadlines {
					buf.Deadline = parseDeadline(hdr)
					buf.Degraded = flags&flagDegraded != 0
				}
				if r.ledger != nil {
					buf.seq = parseSeq(hdr)
				}
				if flags&flagReal != 0 {
					buf.Data = make([]byte, size)
					if _, err := sc.conn.RecvFull(p, buf.Data); err != nil {
						retire(p, true)
						return
					}
				} else {
					remaining := size
					for remaining > 0 {
						m, err := sc.conn.RecvFull(p, scratch[:min(remaining, len(scratch))])
						remaining -= m
						if err != nil {
							retire(p, true)
							return
						}
					}
				}
				r.admit(p, inbox, buf)
			default:
				hpsmon.Count(p.Kernel(), "datacutter", "headers.garbled", 1)
				retire(p, true)
				return
			}
		}
	}
}
