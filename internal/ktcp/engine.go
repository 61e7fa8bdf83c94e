package ktcp

import (
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// The kernel half of the stack is the kernel, not a set of threads: on
// Linux 2.2 the receive path is a bottom half and transmission is
// clocked out of it by returning acks. Both run here as event-context
// continuation engines in the mould of via/engine.go (DESIGN.md §14):
// one item in flight whose state lives in the engine, stage naming the
// pending wait, run carrying on from it when the wait's event fires.
// Every wait is the twin of a blocking call (Queue.GetFunc and PutFunc,
// Node.OverheadFunc, Serializer.UseFunc, Cond.WaitFunc and
// Signal.WaitFunc), so the events are those a process would cause, one
// for one, and the continuations are bound once. ident is the thread
// the engine's spans and node-halt instants sit on in the telemetry
// exports; it never runs.

// Stages of softnet: idle, or the wait in progress.
const (
	softIdle  = iota
	softRx    // the CPU charge for taking in a data segment or an ack
	softAck   // the CPU charge for generating an ack
	softReply // a repeated SYNACK waiting for room in the NIC queue
)

// softnet is the single protocol-processing context of a node's
// receive path. All inbound segments of all connections funnel through
// it, so a node's aggregate TCP receive throughput is bounded by one
// CPU's worth of protocol work regardless of its second processor —
// the Linux 2.2 big-kernel-lock behaviour the paper's numbers reflect.
type softnet struct {
	st    *Stack
	ident *sim.Proc
	stage int
	got   func(softItem, bool)
	step  func()
	put   func(bool)

	seg *segment // the segment in flight, nil for an ack flush
	c   *Conn    // its connection
	// looping is set while onGot's loop is on the stack, so done leaves
	// the next item to it.
	looping bool
}

func (st *Stack) startSoftnet(k *sim.Kernel) {
	e := &softnet{st: st, ident: k.Identity("ktcp-softnet/" + st.node.Name())}
	e.got, e.step, e.put = e.onGot, e.run, e.onPut
	k.After(0, e.step)
}

// onGot takes items off the softnet queue until one leaves a wait
// pending. Those that need none (a segment for a connection that is
// gone, a duplicate SYN or SYNACK, a flush with nothing to send) are
// dealt with in this loop, not by a nested call each, so a backlog of
// them costs no stack.
func (e *softnet) onGot(item softItem, ok bool) {
	for ok {
		e.looping = true
		e.take(item)
		e.looping = false
		if e.stage != softIdle {
			return
		}
		if item, ok = e.st.softQ.TryGet(); !ok {
			e.st.softQ.GetFunc(e.got)
		}
	}
}

// done finishes with the item in flight. Every path through take and
// run has fully consumed its segment by now except a SYN parked in a
// listener queue — and SYNs are never pooled, so the free is a no-op
// for them.
func (e *softnet) done() {
	freeSeg(e.seg)
	e.seg, e.c, e.stage = nil, nil, softIdle
	if !e.looping {
		e.st.softQ.GetFunc(e.got)
	}
}

func (e *softnet) onPut(bool) { e.done() }

// take demultiplexes one item: it starts the item's first wait or is
// done with it. It must not retain a poolable segment past done.
func (e *softnet) take(item softItem) {
	st, cfg := e.st, &e.st.cfg
	if c := item.flushConn; c != nil {
		e.c = c
		if c.ackPending > 0 || item.flushForce {
			e.emitAck()
		} else {
			e.done()
		}
		return
	}
	seg := item.seg
	e.seg = seg
	st.segsIn++
	switch seg.kind {
	case segSYN:
		key := synKey{seg.srcPort, seg.srcConn}
		if c := st.synConns[key]; c != nil {
			// Retransmitted SYN for a connection we already
			// accepted: the SYNACK was lost. Repeat it.
			synack := st.allocSeg(true)
			synack.kind, synack.srcPort, synack.srcConn, synack.dstConn =
				segSYNACK, st.node.Name(), c.id, seg.srcConn
			e.stage = softReply
			st.nicQ.PutFunc(st.controlFrame(seg.srcPort, synack), e.put)
			return
		}
		if !st.synSeen[key] { // else a duplicate SYN still queued for accept
			l := st.listeners[seg.svc]
			if l == nil {
				panic(fmt.Sprintf("ktcp: connect to unbound service %d on %s", seg.svc, st.node.Name()))
			}
			st.synSeen[key] = true
			_ = l.q.TryPut(seg)
		}
	case segSYNACK:
		// Established already: a duplicate SYNACK after a retransmitted SYN.
		if c := st.conns[seg.dstConn]; c != nil && !c.established {
			c.peerConn = seg.srcConn
			c.established = true
			c.sndLimit = int64(cfg.rcvBuf) // peer buffer, symmetric config
			c.connSig.Fire(nil)
		}
	case segData, segAck:
		if e.c = st.conns[seg.dstConn]; e.c == nil {
			break
		}
		cost := ackProcessing
		if seg.kind == segData {
			hpsmon.Count(st.node.Kernel(), "ktcp", "segments.in", 1)
			cost = rxPerSegment + sim.Time(float64(seg.length)*copyPerByteRecv+0.5)
		}
		e.stage = softRx
		st.node.OverheadFunc(e.ident, cost, e.step)
		return
	case segFIN:
		c := st.conns[seg.dstConn]
		if e.c = c; c == nil {
			break
		}
		c.applyAckInfo(seg)
		// Otherwise a duplicate FIN (already consumed) or a FIN beyond
		// a loss gap; either way re-ack and wait for the sender to
		// close the gap.
		if seg.seq == c.rcvd {
			c.rcvd = seg.seq + 1 // FIN consumes one sequence number
			c.rcvEOF = true
			c.rcvCond.Broadcast()
		}
		e.emitAck()
		return
	}
	e.done()
}

// armAckTimer starts the delayed-ack timer if it is not running. A
// fired or stopped timer handle reports not-Pending on its own, so no
// explicit disarm bookkeeping is needed.
func (st *Stack) armAckTimer(c *Conn) {
	if c.ackTimer.Pending() {
		return
	}
	c.ackTimer = st.node.Kernel().After(ackTimeout, c.onAckTimer)
}

// emitAck starts generating a cumulative ack for the connection.
func (e *softnet) emitAck() {
	e.c.ackPending = 0
	e.c.ackTimer.Stop()
	e.stage = softAck
	e.st.node.OverheadFunc(e.ident, ackGen, e.step)
}

func (e *softnet) run() {
	st, c, seg := e.st, e.c, e.seg
	switch e.stage {
	case softIdle:
		st.softQ.GetFunc(e.got)
	case softRx:
		c.applyAckInfo(seg)
		switch {
		case seg.kind == segAck:
			e.done()
		case seg.seq != c.rcvd:
			// A gap (a dropped segment) or a go-back-N duplicate.
			// Discard and force a duplicate ack so the sender
			// resynchronises. Never taken on a flawless fabric:
			// per-pair delivery there is FIFO and gapless.
			hpsmon.Count(st.node.Kernel(), "ktcp", "ooo.drops", 1)
			e.emitAck()
		default:
			c.rcvBuf.AppendChunks(seg.data)
			c.rcvd += int64(seg.length)
			c.rcvCond.Broadcast()
			if c.ackPending++; c.ackPending >= ackEvery {
				e.emitAck()
			} else {
				st.armAckTimer(c)
				e.done()
			}
		}
	case softAck:
		// Queue the ack for transmission; the ack stage feeds the NIC
		// queue, so softnet itself never waits on a full one.
		hpsmon.Count(st.node.Kernel(), "ktcp", "acks.out", 1)
		rwnd := c.rwndAvail()
		c.lastAdvLimit = c.rcvd + int64(rwnd)
		ack := st.allocSeg(true)
		ack.kind, ack.srcPort, ack.srcConn, ack.dstConn = segAck, st.node.Name(), c.id, c.peerConn
		ack.cumAck, ack.rwnd = c.rcvd, rwnd
		_ = st.ackQ.TryPut(ack)
		st.acksOut++
		e.done()
	}
}

// Stages of a connection's transmit engine.
const (
	txStart     = iota
	txHandshake // waiting for the connection to be established
	txStall     // nothing may go: waiting on the send condition
	txData      // a data segment's protocol processing under the stack lock
	txFIN       // the FIN's
	txDone      // the FIN is queued, or the connection failed
)

// txEngine is the per-connection transmit engine: it segments the send
// buffer at the MSS, honours the peer's advertised window, charges
// per-segment protocol processing under the stack lock, and hands
// segments to the NIC queue for the DMA engine and the wire.
type txEngine struct {
	c     *Conn
	ident *sim.Proc
	stage int
	step  func()
	put   func(bool)

	seg   *segment // the data segment in flight, of n bytes
	n     int
	stall hpsmon.Scope
}

func (c *Conn) startTx(k *sim.Kernel) {
	e := &txEngine{c: c, ident: k.Identity(fmt.Sprintf("ktcp-tx/%s/%d", c.st.node.Name(), c.id))}
	e.step, e.put = e.run, e.onPut
	k.After(0, e.step)
}

// pump sends the next segment that may go, or the FIN once a closing
// connection's buffer has drained, and otherwise waits for the send
// condition. A wake-up that finds nothing to send comes back here from
// its own event, so idle broadcasts nest no calls.
func (e *txEngine) pump() {
	c := e.c
	st, cfg := c.st, &c.st.cfg
	if c.failErr != nil {
		e.stage = txDone
		return
	}
	avail := c.sndBuf.Len()
	if c.closing && avail == 0 {
		e.stage = txFIN
		st.stackLock.UseFunc(txPerSegment, 0, e.step)
		return
	}
	if wnd := int(c.sndLimit - c.sent); avail > 0 && wnd > 0 {
		n := min(cfg.MSS, avail, wnd)
		// Nagle: hold back a sub-MSS segment while earlier data is
		// unacknowledged and more may be coming.
		if !(cfg.nagle && n < cfg.MSS && c.inflight() > 0 && !c.closing) {
			e.seg, e.n = st.allocSeg(cfg.RTO <= 0), n
			e.seg.data = c.sndBuf.TakeInto(e.seg.data[:0], n)
			c.sndCond.Broadcast() // send-buffer space freed
			e.stage = txData
			st.stackLock.UseFunc(txPerSegment, 0, e.step)
			return
		}
	}
	e.stall = hpsmon.Begin(e.ident, "ktcp", "tx-stall", c.peerPort)
	e.stage = txStall
	c.sndCond.WaitFunc(e.step)
}

func (e *txEngine) run() {
	c := e.c
	st, cfg := c.st, &c.st.cfg
	switch e.stage {
	case txStart:
		e.stage = txHandshake
		c.connSig.WaitFunc(e.step)
	case txHandshake, txStall:
		e.stall.End() // inert until the first stall
		e.pump()
	case txData:
		// The header is filled in after the hold: it carries the ack
		// state and the window as they stand when the segment leaves.
		seg, n := e.seg, e.n
		e.seg = nil
		seg.kind, seg.srcPort, seg.srcConn, seg.dstConn = segData, st.node.Name(), c.id, c.peerConn
		seg.seq, seg.length = c.sent, n
		seg.cumAck, seg.rwnd = c.rcvd, c.rwndAvail()
		c.sent += int64(n)
		c.trackRetrans(seg)
		st.segsOut++
		hpsmon.Count(st.node.Kernel(), "ktcp", "segments.out", 1)
		hpsmon.Count(st.node.Kernel(), "ktcp", "bytes.out", int64(n))
		st.nicQ.PutFunc(st.net.NewFrame(st.node.Name(), c.peerPort, netsim.ProtoIP,
			headerSize+n, seg), e.put)
	case txFIN:
		seg := st.allocSeg(cfg.RTO <= 0)
		seg.kind, seg.srcPort, seg.srcConn, seg.dstConn = segFIN, st.node.Name(), c.id, c.peerConn
		seg.seq, seg.cumAck, seg.rwnd = c.sent, c.rcvd, c.rwndAvail()
		c.trackRetrans(seg)
		st.nicQ.PutFunc(st.controlFrame(c.peerPort, seg), e.put)
	}
}

// onPut runs once the NIC queue has taken the segment's frame.
func (e *txEngine) onPut(bool) {
	if e.stage == txData {
		e.pump()
		return
	}
	e.stage = txDone
	if !e.c.closeDone.Fired() {
		e.c.closeDone.Fire(nil)
	}
}
