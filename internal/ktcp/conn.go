package ktcp

import (
	"errors"
	"io"

	"hpsockets/internal/bytebuf"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// ErrClosed reports an operation on a locally closed connection.
var ErrClosed = errors.New("ktcp: connection closed")

// ErrTimeout reports that a retransmission budget was exhausted (the
// peer stopped acknowledging) or that a blocking operation exceeded
// the connection's SetTimeout bound.
var ErrTimeout = errors.New("ktcp: operation timed out")

// Conn is one endpoint of an established TCP connection: an in-order
// reliable byte stream with kernel-path costs. Send only fills the send
// buffer; the connection's transmit engine (engine.go) empties it.
type Conn struct {
	st       *Stack
	id       uint32
	peerPort string
	peerConn uint32

	established bool
	connSig     *sim.Signal
	closeDone   *sim.Signal
	closing     bool

	// Send side. sent/acked are cumulative stream offsets; sndLimit is
	// the highest offset the peer's advertised window permits.
	sndBuf   bytebuf.Buffer
	sent     int64
	acked    int64
	sndLimit int64
	sndCond  *sim.Cond

	// Receive side.
	rcvBuf       bytebuf.Buffer
	rcvd         int64
	read         int64
	rcvEOF       bool
	rcvCond      *sim.Cond
	ackPending   int
	ackTimer     sim.Timer
	onAckTimer   func() // queues an ack flush; bound once, armed per delayed ack
	lastAdvLimit int64

	// Retransmission state, active only when cfg.RTO > 0. retransQ
	// holds transmitted-but-unacked segments in sequence order
	// (go-back-N); retries counts consecutive timeouts since the last
	// ack progress; failErr is set once the retry budget is exhausted.
	retransQ []*segment
	rtoTimer sim.Timer
	retries  int
	failErr  error

	// opTimeout bounds blocking waits in Send and Recv; zero (the
	// default) waits forever, as the fault-free model always did.
	opTimeout sim.Time
}

// SetTimeout bounds every subsequent blocking wait inside Send and
// Recv to d of virtual time; the operation fails with ErrTimeout when
// the bound expires. Zero restores unbounded waits.
func (c *Conn) SetTimeout(d sim.Time) { c.opTimeout = d }

// fail marks the connection dead with err, wakes every blocked
// operation, and releases closers. It is idempotent.
func (c *Conn) fail(err error) {
	if c.failErr != nil {
		return
	}
	c.failErr = err
	c.stopRTO()
	c.retransQ = nil
	c.sndCond.Broadcast()
	c.rcvCond.Broadcast()
	if !c.closeDone.Fired() {
		c.closeDone.Fire(nil)
	}
	hpsmon.InstantK(c.st.node.Kernel(), "ktcp", "conn-fail", c.peerPort)
}

// ID reports the connection id on its stack.
func (c *Conn) ID() uint32 { return c.id }

// PeerPort reports the remote node's port name.
func (c *Conn) PeerPort() string { return c.peerPort }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.established }

// rwndAvail is the window the receive buffer can still absorb.
func (c *Conn) rwndAvail() int {
	avail := c.st.cfg.rcvBuf - c.rcvBuf.Len()
	if avail < 0 {
		avail = 0
	}
	return avail
}

// inflight reports unacknowledged bytes in the network.
func (c *Conn) inflight() int { return int(c.sent - c.acked) }

// applyAckInfo absorbs the cumulative ack and advertised window
// carried by any established-state segment.
func (c *Conn) applyAckInfo(seg *segment) {
	if limit := seg.cumAck + int64(seg.rwnd); limit > c.sndLimit {
		c.sndLimit = limit
	}
	if seg.cumAck > c.acked {
		c.acked = seg.cumAck
		c.pruneRetrans()
	}
	c.sndCond.Broadcast()
}

// segEnd reports the stream offset one past the segment's payload; a
// FIN occupies one sequence number so its retransmission can be
// acknowledged distinctly.
func segEnd(seg *segment) int64 {
	if seg.kind == segFIN {
		return seg.seq + 1
	}
	return seg.seq + int64(seg.length)
}

// trackRetrans records a transmitted segment for go-back-N recovery.
// A no-op when retransmission is disabled (RTO zero), keeping the
// fault-free path untouched.
func (c *Conn) trackRetrans(seg *segment) {
	if c.st.cfg.RTO <= 0 || c.failErr != nil {
		return
	}
	c.retransQ = append(c.retransQ, seg)
	c.armRTO()
}

// pruneRetrans drops fully acknowledged segments from the head of the
// retransmit queue; ack progress resets the backoff and restarts the
// timer for whatever remains in flight.
func (c *Conn) pruneRetrans() {
	if c.st.cfg.RTO <= 0 || len(c.retransQ) == 0 {
		return
	}
	n := 0
	for _, seg := range c.retransQ {
		if segEnd(seg) > c.acked {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	c.retransQ = c.retransQ[n:]
	c.retries = 0
	c.stopRTO()
	if len(c.retransQ) > 0 {
		c.armRTO()
	}
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

// rtoDelay is the current timeout with exponential backoff, capped at
// 64x the base RTO.
func (c *Conn) rtoDelay() sim.Time {
	d := c.st.cfg.RTO
	for i := 0; i < c.retries && d < 64*c.st.cfg.RTO; i++ {
		d *= 2
	}
	return d
}

func (c *Conn) armRTO() {
	if c.st.cfg.RTO <= 0 || c.rtoTimer.Pending() || c.failErr != nil {
		return
	}
	c.rtoTimer = c.st.node.Kernel().After(c.rtoDelay(), c.onRTO)
}

// onRTO fires in event context, so it cannot block: retransmission
// re-queues the in-flight segments with TryPut, and a full NIC queue
// simply waits for the next timeout. Go-back-N resends everything
// unacknowledged; the receiver's sequence check discards duplicates.
func (c *Conn) onRTO() {
	if c.failErr != nil || len(c.retransQ) == 0 {
		return
	}
	if c.retries >= c.st.cfg.MaxRetries {
		c.fail(ErrTimeout)
		return
	}
	c.retries++
	st := c.st
	hpsmon.InstantK(st.node.Kernel(), "ktcp", "rto-fire", c.peerPort)
	for _, seg := range c.retransQ {
		f := st.net.NewFrame(st.node.Name(), c.peerPort, netsim.ProtoIP,
			headerSize+seg.length, seg)
		if !st.nicQ.TryPut(f) {
			st.net.FreeFrame(f)
			break
		}
		hpsmon.Count(st.node.Kernel(), "ktcp", "rto.segments", 1)
	}
	c.armRTO()
}

// Send writes real bytes to the stream. It returns once the data is
// copied into the send buffer (blocking while the buffer is full), not
// when it is acknowledged, so pipelined producers behave like real
// sockets. The connection keeps a reference to data; callers must not
// mutate it until it has drained.
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	return c.send(p, bytebuf.Chunk{Size: len(data), Data: data})
}

// SendSize writes n size-only bytes: the stream accounts for them at
// full cost but carries no real payload.
func (c *Conn) SendSize(p *sim.Proc, n int) error {
	return c.send(p, bytebuf.Chunk{Size: n})
}

func (c *Conn) send(p *sim.Proc, ch bytebuf.Chunk) error {
	if c.closing {
		return ErrClosed
	}
	if ch.Size == 0 {
		return nil
	}
	if !c.established {
		p.Wait(c.connSig)
	}
	c.st.node.Overhead(p, sendSyscall)
	offset := 0
	for offset < ch.Size {
		if c.closing {
			return ErrClosed
		}
		if c.failErr != nil {
			return c.failErr
		}
		space := c.st.cfg.sndBuf - c.sndBuf.Len() - c.inflight()
		if space <= 0 {
			k := c.st.node.Kernel()
			t0 := k.Now()
			sc := hpsmon.Begin(p, "ktcp", "snd-stall", c.peerPort)
			timedOut := false
			if c.opTimeout > 0 {
				timedOut = !c.sndCond.WaitTimeout(p, c.opTimeout)
			} else {
				c.sndCond.Wait(p)
			}
			sc.End()
			hpsmon.Observe(k, "ktcp", "snd-stall", k.Now()-t0)
			if timedOut {
				return ErrTimeout
			}
			continue
		}
		n := ch.Size - offset
		if n > space {
			n = space
		}
		// The user->kernel copy of this portion.
		c.st.node.Overhead(p, sim.Time(float64(n)*copyPerByteSend+0.5))
		part := bytebuf.Chunk{Size: n}
		if ch.Data != nil {
			part.Data = ch.Data[offset : offset+n]
		}
		c.sndBuf.Append(part)
		offset += n
		c.sndCond.Broadcast()
	}
	return nil
}

// Recv reads up to len(buf) bytes from the stream, blocking while it
// is empty. At end of stream it returns 0, io.EOF.
func (c *Conn) Recv(p *sim.Proc, buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	c.st.node.Overhead(p, recvSyscall)
	blocked := false
	for c.rcvBuf.Len() == 0 {
		if c.rcvEOF {
			return 0, io.EOF
		}
		if c.failErr != nil {
			return 0, c.failErr
		}
		blocked = true
		k := c.st.node.Kernel()
		t0 := k.Now()
		sc := hpsmon.Begin(p, "ktcp", "rcv-wait", c.peerPort)
		timedOut := false
		if c.opTimeout > 0 {
			timedOut = !c.rcvCond.WaitTimeout(p, c.opTimeout)
		} else {
			c.rcvCond.Wait(p)
		}
		sc.End()
		hpsmon.Observe(k, "ktcp", "rcv-wait", k.Now()-t0)
		if timedOut {
			return 0, ErrTimeout
		}
	}
	if blocked {
		c.st.node.Overhead(p, wakeupCost)
	}
	n := c.rcvBuf.CopyOut(buf)
	c.read += int64(n)
	// Window update: if the last advertised limit has fallen half a
	// buffer behind what we could now advertise, push a fresh ack so a
	// window-blocked sender resumes.
	if rcvBuf := int64(c.st.cfg.rcvBuf); c.read+rcvBuf-c.lastAdvLimit >= rcvBuf/2 {
		_ = c.st.softQ.TryPut(softItem{flushConn: c, flushForce: true})
	}
	return n, nil
}

// RecvFull reads exactly len(buf) bytes unless the stream ends first,
// in which case it returns the count read and io.EOF.
func (c *Conn) RecvFull(p *sim.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Recv(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close drains the send buffer, emits a FIN and returns once the FIN
// is on the wire. Reads of data the peer already sent still succeed.
func (c *Conn) Close(p *sim.Proc) error {
	if c.closing {
		p.Wait(c.closeDone)
		return nil
	}
	c.closing = true
	c.sndCond.Broadcast()
	p.Wait(c.closeDone)
	return nil
}

// Buffered reports bytes waiting in the receive buffer.
func (c *Conn) Buffered() int { return c.rcvBuf.Len() }
