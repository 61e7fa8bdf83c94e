package ktcp

import (
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// softnetLoop is the single protocol-processing process of a node's
// receive path. All inbound segments of all connections funnel through
// it, so a node's aggregate TCP receive throughput is bounded by one
// CPU's worth of protocol work regardless of its second processor —
// the Linux 2.2 big-kernel-lock behaviour the paper's numbers reflect.
func (st *Stack) softnetLoop(p *sim.Proc) {
	for {
		item, ok := st.softQ.Get(p)
		if !ok {
			return
		}
		if item.flushConn != nil {
			c := item.flushConn
			if c.ackPending > 0 || item.flushForce {
				st.emitAck(p, c)
			}
			continue
		}
		seg := item.seg
		st.segsIn++
		st.handleSeg(p, seg)
		// Every path through handleSeg has fully consumed the segment
		// except a SYN parked in a listener queue — and SYNs are never
		// pooled, so the free below is a no-op for them.
		freeSeg(seg)
	}
}

// handleSeg demultiplexes one inbound segment. It must not retain a
// poolable segment past its return.
func (st *Stack) handleSeg(p *sim.Proc, seg *segment) {
	cfg := st.cfg
	switch seg.kind {
	case segSYN:
		key := synKey{seg.srcPort, seg.srcConn}
		if c := st.synConns[key]; c != nil {
			// Retransmitted SYN for a connection we already
			// accepted: the SYNACK was lost. Repeat it.
			synack := st.allocSeg(true)
			synack.kind, synack.srcPort, synack.srcConn, synack.dstConn =
				segSYNACK, st.node.Name(), c.id, seg.srcConn
			st.transmitControl(p, seg.srcPort, synack)
			return
		}
		if st.synSeen[key] {
			return // duplicate SYN still queued for accept
		}
		l := st.listeners[seg.svc]
		if l == nil {
			panic(fmt.Sprintf("ktcp: connect to unbound service %d on %s", seg.svc, st.node.Name()))
		}
		st.synSeen[key] = true
		_ = l.q.TryPut(seg)
	case segSYNACK:
		c := st.conns[seg.dstConn]
		if c == nil || c.established {
			return // duplicate SYNACK after a retransmitted SYN
		}
		c.peerConn = seg.srcConn
		c.established = true
		c.sndLimit = int64(cfg.RcvBuf) // peer buffer, symmetric config
		c.connSig.Fire(nil)
	case segData:
		c := st.conns[seg.dstConn]
		if c == nil {
			return
		}
		st.node.Kernel().Trace("ktcp", "segment-in", int64(seg.length), seg.srcPort)
		hpsmon.Count(st.node.Kernel(), "ktcp", "segments.in", 1)
		cost := cfg.RxPerSegment + sim.Time(float64(seg.length)*cfg.CopyPerByteRecv+0.5)
		st.node.Overhead(p, cost)
		c.applyAckInfo(seg)
		if seg.seq != c.rcvd {
			// A gap (a dropped segment) or a go-back-N duplicate.
			// Discard and force a duplicate ack so the sender
			// resynchronises. Never taken on a flawless fabric:
			// per-pair delivery there is FIFO and gapless.
			st.node.Kernel().Trace("ktcp", "ooo-drop", int64(seg.length), seg.srcPort)
			st.emitAck(p, c)
			return
		}
		c.rcvBuf.AppendChunks(seg.data)
		c.rcvd += int64(seg.length)
		c.rcvCond.Broadcast()
		c.ackPending++
		if c.ackPending >= cfg.AckEvery {
			st.emitAck(p, c)
		} else {
			st.armAckTimer(c)
		}
	case segAck:
		c := st.conns[seg.dstConn]
		if c == nil {
			return
		}
		st.node.Overhead(p, cfg.AckProcessing)
		c.applyAckInfo(seg)
	case segFIN:
		c := st.conns[seg.dstConn]
		if c == nil {
			return
		}
		c.applyAckInfo(seg)
		if seg.seq != c.rcvd {
			// Duplicate FIN (already consumed) or FIN beyond a
			// loss gap; either way re-ack and wait for the sender
			// to close the gap.
			st.emitAck(p, c)
			return
		}
		c.rcvd = seg.seq + 1 // FIN consumes one sequence number
		c.rcvEOF = true
		c.rcvCond.Broadcast()
		st.emitAck(p, c)
	}
}

// armAckTimer starts the delayed-ack timer if it is not running. A
// fired or stopped timer handle reports not-Pending on its own, so no
// explicit disarm bookkeeping is needed.
func (st *Stack) armAckTimer(c *Conn) {
	if c.ackTimer.Pending() {
		return
	}
	c.ackTimer = st.node.Kernel().After(st.cfg.AckTimeout, c.onAckTimer)
}

// emitAck generates a cumulative ack for the connection and queues it
// for transmission.
func (st *Stack) emitAck(p *sim.Proc, c *Conn) {
	c.ackPending = 0
	c.ackTimer.Stop()
	st.node.Overhead(p, st.cfg.AckGen)
	st.node.Kernel().Trace("ktcp", "ack-out", c.rcvd, c.peerPort)
	rwnd := c.rwndAvail()
	c.lastAdvLimit = c.rcvd + int64(rwnd)
	ack := st.allocSeg(true)
	ack.kind, ack.srcPort, ack.srcConn, ack.dstConn = segAck, st.node.Name(), c.id, c.peerConn
	ack.cumAck, ack.rwnd = c.rcvd, rwnd
	_ = st.ackQ.TryPut(ack)
	st.acksOut++
}
