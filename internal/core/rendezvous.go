package core

import (
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
	"hpsockets/internal/via"
)

// Zero-copy rendezvous — the push-model large-message path built on
// VIA RDMA Write, implementing the paper's future-work direction.
//
// For sends at or above SVConfig.RendezvousThreshold the sockets layer
// switches from eager chunking to a rendezvous: the sender announces
// the transfer (RendReq), the receiver grants its RDMA landing region
// (RendCTS), the sender registers the user buffer and RDMA-writes it
// directly — no sender-side copy and no eager credits — then posts a
// completion notice (RendDone) that VI FIFO ordering delivers after
// the data. Receiver-side flow control defers the grant while the
// connection's receive queue is above its high-water mark.
//
// Control-descriptor accounting: a connection has at most one
// un-granted RendReq, one outstanding grant and one RendDone in flight
// (sends are serialized by the caller), covered by the +3 control
// slack in SVConfig.ctrlSlack.

// realBit marks a rendezvous payload as real bytes in the 31-bit
// immediate value; the low 30 bits carry the piece size.
const (
	rendRealBit  = 1 << 30
	rendSizeMask = rendRealBit - 1
)

// rendDescTag marks one-shot RDMA descriptors in send completions so
// the pump does not recycle them into the eager pool.
type rendDescTag struct{}

// rendHighWater is the buffered-byte level above which the receiver
// defers grants.
func (c *svConn) rendHighWater() int { return c.ep.cfg.Credits * c.ep.cfg.ChunkSize }

// sendRendezvous pushes one payload via RDMA-write pieces.
func (c *svConn) sendRendezvous(p *sim.Proc, data []byte, n int) error {
	node := c.node()
	offset := 0
	for offset < n {
		m := n - offset
		if m > via.MaxTransfer {
			m = via.MaxTransfer
		}
		val := m
		if data != nil {
			val |= rendRealBit
		}
		node.Overhead(p, svProcCost)
		hpsmon.Count(node.Kernel(), "socketvia", "rend.pieces", 1)
		piece := hpsmon.Begin(p, "socketvia", "rendezvous", "")
		c.sendCtrl(p, svRendReq, val)
		ctsStart := node.Kernel().Now()
		for c.ctsArrived <= c.ctsConsumed && c.brokenErr == nil {
			timedOut := false
			if c.opTimeout > 0 {
				timedOut = !c.rendCond.WaitTimeout(p, c.opTimeout)
			} else {
				c.rendCond.Wait(p)
			}
			if timedOut {
				piece.End()
				return ErrTimeout
			}
		}
		hpsmon.Observe(node.Kernel(), "socketvia", "cts-wait", node.Kernel().Now()-ctsStart)
		if c.brokenErr != nil {
			piece.End()
			return c.brokenErr
		}
		c.ctsConsumed++
		// Register the user buffer: the zero-copy trade is pin cost
		// instead of copy cost.
		reg := c.ep.pr.RegisterMem(p, m)
		desc := &via.Desc{Region: reg, Len: m, Ctx: rendDescTag{}}
		if data != nil {
			desc.Data = data[offset : offset+m]
		}
		if err := c.vi.PostRDMAWrite(p, desc, c.rendHandle, 0); err != nil {
			piece.End()
			c.markBroken(ErrBroken)
			return ErrBroken
		}
		// VI FIFO ordering delivers this after the written data.
		c.sendCtrl(p, svRendDone, val)
		piece.End()
		offset += m
	}
	return nil
}

// handleRendReq runs in the pump when the peer announces a transfer.
func (c *svConn) handleRendReq(p *sim.Proc, val int) {
	if c.rendRegion == nil {
		c.rendRegion, c.rendLocalHandle = c.ep.pr.RegisterMemRDMA(p, via.MaxTransfer)
	}
	c.rendMeta = append(c.rendMeta, val)
	if c.rcvAvail <= c.rendHighWater() {
		hpsmon.Count(c.node().Kernel(), "socketvia", "rend.cts", 1)
		c.sendCtrl(p, svRendCTS, int(c.rendLocalHandle))
	} else {
		c.ctsOwed++
	}
}

// handleRendCTS runs in the pump when the peer grants its region.
func (c *svConn) handleRendCTS(val int) {
	c.rendHandle = uint32(val)
	c.ctsArrived++
	c.rendCond.Broadcast()
}

// handleRendDone runs in the pump when a pushed piece has landed.
func (c *svConn) handleRendDone() {
	if len(c.rendMeta) == 0 {
		// A done with no announcement means the request was lost on a
		// faulty wire while the done survived teardown races; the
		// stream is unrecoverable from here.
		hpsmon.Count(c.node().Kernel(), "socketvia", "rend.orphans", 1)
		c.markBroken(ErrBroken)
		return
	}
	val := c.rendMeta[0]
	c.rendMeta = c.rendMeta[1:]
	size := val & rendSizeMask
	ch := rxChunk{size: size}
	if val&rendRealBit != 0 {
		// Hand the landed bytes to the reader. The Go-level copy is
		// for aliasing safety only (the landing region is reused); the
		// zero-copy model charges no protocol copy here.
		ch.data = append([]byte(nil), c.rendRegion.RDMABytes()[:size]...)
	}
	c.rcvChunks = append(c.rcvChunks, ch)
	c.rcvAvail += size
	c.rcvCond.Broadcast()
}

// maybeGrantRendezvous releases a deferred grant once the reader has
// drained below the high-water mark; called from Recv.
func (c *svConn) maybeGrantRendezvous(p *sim.Proc) {
	if c.ctsOwed > 0 && c.rcvAvail <= c.rendHighWater() && c.brokenErr == nil {
		c.ctsOwed--
		c.sendCtrl(p, svRendCTS, int(c.rendLocalHandle))
	}
}
