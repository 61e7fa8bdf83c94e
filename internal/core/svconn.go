package core

import (
	"io"

	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
	"hpsockets/internal/via"
)

// rxChunk is one arrived eager chunk held until the reader drains it,
// still owning its receive descriptor.
type rxChunk struct {
	desc     *via.Desc
	data     []byte // nil for size-only payloads
	size     int
	consumed int
}

// svConn is a SocketVIA connection.
type svConn struct {
	ep *svEndpoint
	vi *via.VI
	cq *via.CQ

	// Send side: free registered send buffers and data credits.
	sendPool *sim.Queue[*via.Desc]
	credits  int
	credCond *sim.Cond
	closed   bool

	// Receive side.
	rcvChunks []rxChunk
	rcvAvail  int
	rcvCond   *sim.Cond
	finRcvd   bool
	consumed  int // descriptors reposted since the last credit update

	// Control.
	ctrlPool *sim.Queue[*via.Desc]
	readySig *sim.Signal
	// brokenErr, once non-nil, is the typed error every subsequent
	// operation fails with (ErrBroken, ErrDescriptorExhausted, or
	// ErrTimeout).
	brokenErr error

	// opTimeout bounds blocking waits in Send and Recv (0 = forever).
	opTimeout sim.Time

	// Rendezvous state (see rendezvous.go).
	rendCond        *sim.Cond
	ctsArrived      int
	ctsConsumed     int
	ctsOwed         int
	rendHandle      uint32
	rendLocalHandle uint32
	rendRegion      *via.MemRegion
	rendMeta        []int
}

func (c *svConn) Transport() string        { return "socketvia" }
func (c *svConn) LocalNode() *cluster.Node { return c.ep.pr.Node() }
func (c *svConn) SetTimeout(d sim.Time)    { c.opTimeout = d }

func (c *svConn) node() *cluster.Node { return c.ep.pr.Node() }

// sendCtrl posts a control message (credit update, FIN, ready).
// Control descriptor availability is structurally bounded, see
// SVConfig.ctrlSlack.
func (c *svConn) sendCtrl(p *sim.Proc, kind uint64, val int) {
	d, ok := c.ctrlPool.Get(p)
	if !ok {
		return
	}
	d.Len = 1
	d.Data = nil
	d.Imm = svImm(kind, val)
	if err := c.vi.PostSend(p, d); err != nil {
		c.markBroken(ErrBroken)
	}
}

// Send writes real bytes to the stream.
func (c *svConn) Send(p *sim.Proc, data []byte) error {
	return c.send(p, data, len(data))
}

// SendSize writes n size-only bytes.
func (c *svConn) SendSize(p *sim.Proc, n int) error {
	return c.send(p, nil, n)
}

// send chops the payload into eager chunks; each chunk takes a free
// registered send buffer (returned by its send completion), one data
// credit, a user-to-registered copy, and one VIA send descriptor.
func (c *svConn) send(p *sim.Proc, data []byte, n int) error {
	if c.closed {
		return ErrConnClosed
	}
	if c.brokenErr != nil {
		return c.brokenErr
	}
	cfg := c.ep.cfg
	if cfg.RendezvousThreshold > 0 && n >= cfg.RendezvousThreshold {
		return c.sendRendezvous(p, data, n)
	}
	node := c.node()
	offset := 0
	for offset < n {
		m := n - offset
		if m > cfg.ChunkSize {
			m = cfg.ChunkSize
		}
		d, ok := c.sendPool.Get(p)
		if !ok {
			return c.errBroken()
		}
		blocked := false
		for c.credits == 0 && c.brokenErr == nil {
			blocked = true
			k := node.Kernel()
			t0 := k.Now()
			sc := hpsmon.Begin(p, "socketvia", "credit-wait", "")
			timedOut := false
			if c.opTimeout > 0 {
				timedOut = !c.credCond.WaitTimeout(p, c.opTimeout)
			} else {
				c.credCond.Wait(p)
			}
			sc.End()
			hpsmon.Observe(k, "socketvia", "credit-wait", k.Now()-t0)
			if timedOut {
				_ = c.sendPool.TryPut(d) // return the unused buffer
				return ErrTimeout
			}
		}
		if c.brokenErr != nil {
			return c.brokenErr
		}
		if blocked {
			node.Overhead(p, svReaderWakeup)
		}
		c.credits--
		hpsmon.Count(node.Kernel(), "socketvia", "chunks.out", 1)
		hpsmon.Count(node.Kernel(), "socketvia", "chunk.bytes.out", int64(m))
		node.Overhead(p, svProcCost+sim.Time(float64(m)*svCopyPerByte+0.5))
		d.Len = m
		d.Imm = svImm(svData, m)
		if data != nil {
			backing := d.Ctx.([]byte)
			copy(backing, data[offset:offset+m])
			d.Data = backing[:m]
		} else {
			d.Data = nil
		}
		if err := c.vi.PostSend(p, d); err != nil {
			c.markBroken(ErrBroken)
			return ErrBroken
		}
		offset += m
	}
	return nil
}

// errBroken reports the recorded break reason, defaulting to ErrBroken
// for paths (like a closed pool) that imply one without recording it.
func (c *svConn) errBroken() error {
	if c.brokenErr != nil {
		return c.brokenErr
	}
	return ErrBroken
}

// Recv reads up to len(buf) bytes, copying out of the registered
// receive buffers; fully drained descriptors are reposted and batched
// into credit updates.
func (c *svConn) Recv(p *sim.Proc, buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	node := c.node()
	node.Overhead(p, svProcCost)
	blocked := false
	for c.rcvAvail == 0 {
		if c.finRcvd {
			return 0, io.EOF
		}
		if c.brokenErr != nil {
			return 0, c.brokenErr
		}
		blocked = true
		k := node.Kernel()
		t0 := k.Now()
		sc := hpsmon.Begin(p, "socketvia", "rcv-wait", "")
		timedOut := false
		if c.opTimeout > 0 {
			timedOut = !c.rcvCond.WaitTimeout(p, c.opTimeout)
		} else {
			c.rcvCond.Wait(p)
		}
		sc.End()
		hpsmon.Observe(k, "socketvia", "rcv-wait", k.Now()-t0)
		if timedOut {
			return 0, ErrTimeout
		}
	}
	if blocked {
		node.Overhead(p, svReaderWakeup)
	}
	n := len(buf)
	if n > c.rcvAvail {
		n = c.rcvAvail
	}
	node.Overhead(p, sim.Time(float64(n)*svCopyPerByte+0.5))
	remaining := n
	off := 0
	for remaining > 0 {
		ch := &c.rcvChunks[0]
		take := ch.size - ch.consumed
		if take > remaining {
			take = remaining
		}
		if ch.data != nil {
			copy(buf[off:], ch.data[ch.consumed:ch.consumed+take])
		}
		ch.consumed += take
		off += take
		remaining -= take
		if ch.consumed == ch.size {
			if ch.desc != nil {
				c.repostChunk(p, ch.desc)
			}
			c.rcvChunks[0] = rxChunk{}
			c.rcvChunks = c.rcvChunks[1:]
		}
	}
	c.rcvAvail -= n
	c.maybeSendCredits(p)
	c.maybeGrantRendezvous(p)
	return n, nil
}

func (c *svConn) RecvFull(p *sim.Proc, buf []byte) (int, error) {
	return recvFull(c, p, buf)
}

// repostChunk returns a drained descriptor to the VI.
func (c *svConn) repostChunk(p *sim.Proc, d *via.Desc) {
	if c.brokenErr != nil {
		return
	}
	d.Data = nil
	d.Len = c.ep.cfg.ChunkSize
	if err := c.vi.PostRecv(p, d); err != nil {
		c.markBroken(ErrBroken)
		return
	}
	c.consumed++
}

// maybeSendCredits returns accumulated descriptors to the sender once
// a batch is full.
func (c *svConn) maybeSendCredits(p *sim.Proc) {
	if c.consumed >= c.ep.cfg.CreditBatch && c.brokenErr == nil {
		grant := c.consumed
		c.consumed = 0
		hpsmon.Count(c.node().Kernel(), "socketvia", "credits.granted", int64(grant))
		c.sendCtrl(p, svCredit, grant)
	}
}

// Close sends FIN; the receive direction stays open. Closing twice
// (or after a break) is safe.
func (c *svConn) Close(p *sim.Proc) error {
	if c.closed || c.brokenErr != nil {
		return nil
	}
	c.closed = true
	c.sendCtrl(p, svFIN, 0)
	return nil
}

// markBroken records the typed break reason and wakes everyone: the
// condition waiters through broadcasts, and senders parked on the
// descriptor pools by closing them (a broken connection stops
// recycling descriptors, so a blocked Get would otherwise hang
// forever).
func (c *svConn) markBroken(err error) {
	if c.brokenErr == nil {
		c.brokenErr = err
	}
	c.sendPool.Close()
	c.ctrlPool.Close()
	c.credCond.Broadcast()
	c.rcvCond.Broadcast()
	c.rendCond.Broadcast()
}

// pump is the connection's progress process: it services the shared
// completion queue, delivering data chunks to the reader, absorbing
// credit updates, recycling send descriptors and answering control
// traffic. It reproduces the progress engine of user-level sockets
// layers (which real SocketVIA folds into its send/recv paths).
func (c *svConn) pump(p *sim.Proc) {
	for {
		comp := c.cq.Wait(p)
		if comp.Status != via.StatusOK {
			// RNR means the peer's receive descriptors ran out — the
			// one condition the credit protocol exists to prevent, so
			// it only fires under injected descriptor pressure.
			if comp.Status == via.StatusRNR {
				c.markBroken(ErrDescriptorExhausted)
			} else {
				c.markBroken(ErrBroken)
			}
			if c.readySig != nil && !c.readySig.Fired() {
				c.readySig.Fire(nil)
			}
			return
		}
		if !comp.IsRecv {
			// Send completion: recycle the descriptor into its pool.
			// One-shot rendezvous descriptors are dropped.
			switch comp.Desc.Ctx.(type) {
			case ctrlTag:
				_ = c.ctrlPool.TryPut(comp.Desc)
			case rendDescTag:
			default:
				_ = c.sendPool.TryPut(comp.Desc)
			}
			continue
		}
		d := comp.Desc
		switch svKind(d.Imm) {
		case svData:
			c.rcvChunks = append(c.rcvChunks, rxChunk{desc: d, data: d.Data, size: d.XferLen})
			c.rcvAvail += d.XferLen
			c.rcvCond.Broadcast()
		case svCredit:
			c.credits += svVal(d.Imm)
			c.repostCtrlRecv(p, d)
			c.credCond.Broadcast()
		case svReady:
			c.repostCtrlRecv(p, d)
			if !c.readySig.Fired() {
				c.readySig.Fire(nil)
			}
		case svRendReq:
			c.repostCtrlRecv(p, d)
			c.handleRendReq(p, svVal(d.Imm))
		case svRendCTS:
			c.repostCtrlRecv(p, d)
			c.handleRendCTS(svVal(d.Imm))
		case svRendDone:
			c.repostCtrlRecv(p, d)
			c.handleRendDone()
		case svFIN:
			c.finRcvd = true
			c.rcvCond.Broadcast()
			// Descriptor deliberately not reposted: the stream is
			// ending and the slack accounting allows for it.
		default:
			// Every immediate value is built by svImm in this package,
			// so an unknown kind means the message was damaged in a
			// way the lower layers failed to catch. Treat the
			// connection as broken rather than crash the simulation.
			hpsmon.Count(c.node().Kernel(), "socketvia", "msgs.bad.kind", 1)
			c.markBroken(ErrBroken)
			return
		}
	}
}

// repostCtrlRecv immediately returns a control-consumed descriptor so
// control traffic never depletes the pool.
func (c *svConn) repostCtrlRecv(p *sim.Proc, d *via.Desc) {
	if c.brokenErr != nil {
		return
	}
	d.Data = nil
	d.Len = c.ep.cfg.ChunkSize
	if err := c.vi.PostRecv(p, d); err != nil {
		c.markBroken(ErrBroken)
	}
}
