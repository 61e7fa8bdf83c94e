package via

import (
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// engine is what the adapter's two engines share. They are hardware:
// they charge no host CPU and wait on no condition, so they run as
// event-context continuations, not processes (DESIGN.md §14). Each has
// one item in flight, whose state lives in the engine; stage names the
// wait that is pending and run carries on from it when the wait's event
// fires. Every wait is the twin of a blocking call (Queue.GetFunc and
// PutFunc, Resource.UseFunc, Kernel.After for a sleep), so the events
// are those a process would cause, one for one, and the continuations
// are bound once: an item's passage allocates nothing for them.
type engine struct {
	pr *Provider
	// ident is the thread the engine's spans and instants are on in the
	// telemetry exports. It never runs.
	ident *sim.Proc
	stage int
	step  func()
	put   func(bool)
}

// start schedules the engine's first step where Kernel.Go would have
// scheduled a process's first activation.
func (e *engine) start(pr *Provider, name string, run func(), put func(bool)) {
	k := pr.node.Kernel()
	e.pr, e.ident, e.step, e.put = pr, k.Identity(name+pr.node.Name()), run, put
	k.After(0, run)
}

// wait sleeps for d and carries on at stage.
func (e *engine) wait(stage int, d sim.Time) {
	e.stage = stage
	e.pr.node.Kernel().After(d, e.step)
}

// dma charges one DMA transaction of n bytes and carries on at stage.
func (e *engine) dma(stage, n int) {
	e.stage = stage
	e.pr.dma.UseFunc(1, dmaPerOp+sim.Time(float64(n)*dmaPerByte+0.5), e.step)
}

// Stages of the transmit engine: idle, or the wait in progress.
const (
	txIdle    = iota
	txFetch   // adapter processing of the descriptor
	txDMA     // a fragment crossing the PCI bus
	txFrame   // adapter processing of the fragment's frame
	txDeliver // writing the completion
)

// txEngine is the NIC descriptor-fetch and DMA engine: it drains the
// send work queue, fragments each descriptor at the MTU, DMAs each
// fragment across the PCI bus and hands frames to the wire stage.
type txEngine struct {
	engine
	got func(*sendWork, bool)

	w       sendWork // the descriptor in flight
	span    hpsmon.Scope
	wireBuf []byte
	offset  int // bytes of it handed to the wire stage so far
	n       int // size of the fragment in the engine
}

// onGot takes descriptors off the work queue until one needs the
// engine. Those that need no wait are dealt with in this loop, not by
// a nested call each, so a backlog of them costs no stack.
func (e *txEngine) onGot(w *sendWork, ok bool) {
	for ok && !e.fetch(w) {
		if w, ok = e.pr.sendWQ.TryGet(); !ok {
			e.pr.sendWQ.GetFunc(e.got)
		}
	}
}

// fetch takes a descriptor off the work queue and reports whether the
// engine is now busy with it: one posted on a VI that broke since
// completes at once.
func (e *txEngine) fetch(w *sendWork) bool {
	e.w = *w
	e.pr.freeSendWork(w)
	vi, desc := e.w.vi, e.w.desc
	if vi.state != viConnected {
		desc.Status = StatusBroken
		vi.sendCQ.post(Completion{VI: vi, Desc: desc, Status: StatusBroken})
		return false
	}
	e.span = hpsmon.Begin(e.ident, "via", "send-desc", vi.peerPort)
	e.wait(txFetch, nicTxPerDesc)
	return true
}

func (e *txEngine) run() {
	pr, vi, desc := e.pr, e.w.vi, e.w.desc
	switch e.stage {
	case txIdle:
		pr.sendWQ.GetFunc(e.got)
	case txFetch:
		// The DMA engine reads the message out of host memory into one
		// private wire buffer; every fragment aliases a window of it, so
		// the host buffer may be reused as soon as the send completes
		// and the receiver can hand the assembled message to its
		// descriptor without a reassembly copy. The simulated DMA cost
		// is still charged per fragment — only the real-memory traffic
		// collapses to one copy per message.
		if desc.Data != nil {
			e.wireBuf = append([]byte(nil), desc.Data[:desc.Len]...)
		}
		e.offset = 0
		e.fragment()
	case txDMA:
		e.wait(txFrame, nicTxPerFrame)
	case txFrame:
		pk := pr.newPacket()
		pk.kind = pkData
		pk.srcPort = pr.node.Name()
		pk.srcVI = vi.id
		pk.dstVI = vi.peerVI
		pk.seq = vi.txSeq
		pk.msgLen = desc.Len
		pk.fragLen = e.n
		if e.wireBuf != nil {
			pk.frag = e.wireBuf[e.offset : e.offset+e.n]
			pk.msg = e.wireBuf
		}
		pk.first = e.offset == 0
		pk.last = e.offset+e.n == desc.Len
		pk.imm = desc.Imm
		vi.txSeq++
		if e.w.rdma {
			pk.kind = pkRDMA
			pk.rdmaHandle = e.w.rdmaHandle
			pk.rdmaOffset = e.w.rdmaOffset + e.offset
		}
		pr.txFIFO.PutFunc(pr.net.NewFrame(pr.node.Name(), vi.peerPort,
			netsim.ProtoVIA, headerSize+e.n, pk), e.put)
	case txDeliver:
		desc.Status = StatusOK
		desc.XferLen = desc.Len
		pr.descsSent++
		hpsmon.Count(pr.node.Kernel(), "via", "descs.sent", 1)
		hpsmon.Count(pr.node.Kernel(), "via", "bytes.sent", int64(desc.Len))
		vi.sendCQ.post(Completion{VI: vi, Desc: desc, Status: StatusOK})
		e.span.End()
		e.w, e.wireBuf = sendWork{}, nil
		pr.sendWQ.GetFunc(e.got)
	}
}

// fragment starts the DMA of the descriptor's next fragment.
func (e *txEngine) fragment() {
	e.n = min(e.w.desc.Len-e.offset, e.pr.cfg.mtu)
	e.dma(txDMA, e.n)
}

// onPut runs once the wire stage has taken a fragment's frame.
func (e *txEngine) onPut(bool) {
	if e.offset += e.n; e.offset < e.w.desc.Len {
		e.fragment()
	} else {
		e.wait(txDeliver, cqDeliver)
	}
}

// Stages of the receive engine.
const (
	rxIdle   = iota
	rxFrame  // adapter processing of the frame
	rxDMA    // the fragment crossing the PCI bus into host memory
	rxFinish // writing the completion, or queueing a break notification
)

// rxEngine is the NIC receive engine: per-frame processing, DMA into
// registered host memory, descriptor matching and completion delivery.
// Every consumed packet is recycled; the frag payload (if any) has been
// handed off or copied by then.
type rxEngine struct {
	engine
	got func(*packet, bool)

	pk *packet // the data or RDMA fragment in flight, for vi
	vi *VI
	// done, when its VI is set, is the completion the engine delivers
	// as it finishes with pk.
	done Completion
}

// onGot takes packets off the receive queue until one needs the
// engine, in a loop for the reason txEngine.onGot gives: control
// frames and stale frames of a torn-down VI need no wait.
func (e *rxEngine) onGot(pk *packet, ok bool) {
	for ok && !e.accept(pk) {
		e.pr.freePacket(pk)
		if pk, ok = e.pr.rxQ.TryGet(); !ok {
			e.pr.rxQ.GetFunc(e.got)
		}
	}
}

// accept demultiplexes one inbound packet and reports whether the
// engine is now busy with it, which only a data or RDMA fragment for a
// live VI makes it. Otherwise the packet is not retained.
func (e *rxEngine) accept(pk *packet) bool {
	pr := e.pr
	if pk.corrupt && pk.kind != pkData && pk.kind != pkRDMA {
		// A corrupted control frame fails its checksum and is
		// silently discarded; higher layers recover by timeout.
		hpsmon.Count(pr.node.Kernel(), "via", "ctrl.corrupt.drops", 1)
		return false
	}
	vi := pr.vis[pk.dstVI]
	switch pk.kind {
	case pkConnReq:
		a := pr.listeners[pk.svc]
		if a == nil {
			panic(fmt.Sprintf("via: connect to unbound service %d on %s", pk.svc, pr.node.Name()))
		}
		_ = a.q.TryPut(&connReq{srcPort: pk.srcPort, srcVI: pk.srcVI})
	case pkConnAck:
		if vi != nil {
			vi.peerPort, vi.peerVI, vi.state = pk.srcPort, pk.srcVI, viConnected
			vi.connSig.Fire(nil)
		}
	case pkBreak:
		if vi != nil && vi.state != viBroken {
			vi.breakLocal()
		}
	case pkDisconnect:
		if vi != nil {
			vi.remoteClosed = true
			if vi.closeSig != nil && !vi.closeSig.Fired() {
				vi.closeSig.Fire(nil)
			}
		}
	case pkData, pkRDMA:
		if vi == nil || vi.state == viBroken {
			return false // stale frame after teardown: drop
		}
		e.pk, e.vi = pk, vi
		e.wait(rxFrame, nicRxPerFrame)
		return true
	}
	return false
}

func (e *rxEngine) run() {
	switch e.stage {
	case rxIdle:
		e.pr.rxQ.GetFunc(e.got)
	case rxFrame:
		e.dma(rxDMA, e.pk.fragLen)
	case rxDMA:
		e.land()
	case rxFinish:
		e.finish()
	}
}

// finish delivers the pending completion, if any, recycles the packet
// and moves on.
func (e *rxEngine) finish() {
	if e.done.VI != nil {
		e.done.VI.recvCQ.post(e.done)
	}
	e.pr.freePacket(e.pk)
	e.pk, e.vi, e.done = nil, nil, Completion{}
	e.pr.rxQ.GetFunc(e.got)
}

func (e *rxEngine) onPut(bool) { e.finish() }

// breakVI tears the VI down after a reliable-delivery violation and
// notifies the peer; the engine finishes with the packet once the
// notification is queued for the wire.
func (e *rxEngine) breakVI() {
	vi := e.vi
	vi.breakLocal()
	e.pr.txFIFO.PutFunc(e.pr.controlFrame(vi.peerPort, pkBreak, vi.id, vi.peerVI, 0), e.put)
}

// lossBreak tears a VI down after the receive engine detected wire
// damage — a sequence gap left by a dropped frame, or a failed
// checksum on a corrupted one. Reliable delivery has no retransmit:
// the connection breaks, the peer is notified, and local waiters wake
// with error completions (directly, when no descriptors were posted
// for breakLocal to flush).
func (e *rxEngine) lossBreak(why string) {
	if e.pk.kind == pkRDMA {
		why = "rdma " + why
	}
	hpsmon.Instant(e.ident, "via", "loss-break", why)
	if e.vi.recvDescs.Len() == 0 {
		e.done = Completion{VI: e.vi, IsRecv: true, Status: StatusBroken}
	}
	e.breakVI()
}

// land takes the fragment the DMA engine just moved into host memory.
func (e *rxEngine) land() {
	pr, pk, vi := e.pr, e.pk, e.vi
	if pk.corrupt {
		e.lossBreak("checksum " + pk.srcPort)
		return
	}
	if pk.seq != vi.rxSeq {
		e.lossBreak(fmt.Sprintf("seq gap %d!=%d %s", pk.seq, vi.rxSeq, pk.srcPort))
		return
	}
	vi.rxSeq++
	if pk.kind == pkRDMA {
		e.landRDMA()
		return
	}
	if pk.first {
		vi.curLen = 0
		vi.curMsg = nil
		vi.curParts = vi.curParts[:0]
	}
	vi.curLen += pk.fragLen
	if pk.msg != nil {
		// Every fragment of the message aliases one private wire
		// buffer; in-order reliable delivery (the seq check above)
		// guarantees that by the last fragment the whole buffer has
		// arrived, so no per-part accumulation is needed.
		vi.curMsg = pk.msg
	} else if pk.frag != nil {
		vi.curParts = append(vi.curParts, pk.frag)
	}
	if !pk.last {
		e.finish()
		return
	}
	// Message complete: match the head receive descriptor. Injected
	// descriptor pressure makes the adapter treat the pool as
	// exhausted even when a descriptor is posted.
	pressured := pr.descPressure != nil && pr.descPressure()
	desc, ok := vi.recvDescs.TryGet()
	if pressured {
		hpsmon.Count(pr.node.Kernel(), "via", "desc.pressure", 1)
	}
	if !ok || pressured || desc.Len < vi.curLen {
		// Reliable delivery with no (or too small a) receive
		// descriptor: the connection breaks. Notify the peer.
		hpsmon.Instant(e.ident, "via", "rnr-break", pk.srcPort)
		if ok {
			desc.Status = StatusRNR
		}
		e.done = Completion{VI: vi, Desc: desc, IsRecv: true, Status: StatusRNR}
		e.breakVI()
		return
	}
	desc.Status = StatusOK
	desc.XferLen = vi.curLen
	desc.Imm = pk.imm
	if vi.curMsg != nil {
		// Zero-copy hand-off: the descriptor aliases the sender's
		// private wire buffer. Nothing else retains it — the sender
		// allocated it for this message alone and netsim never mutates
		// payload bytes (corruption is an envelope flag) — so ownership
		// transfers cleanly to the application.
		desc.Data = vi.curMsg
		vi.curMsg = nil
	} else if len(vi.curParts) == 1 {
		desc.Data = vi.curParts[0]
	} else if len(vi.curParts) > 1 {
		buf := make([]byte, 0, vi.curLen)
		for _, part := range vi.curParts {
			buf = append(buf, part...)
		}
		desc.Data = buf
	} else {
		desc.Data = nil
	}
	vi.curParts = vi.curParts[:0]
	vi.rxMsgs++
	pr.descsRecv++
	hpsmon.Count(pr.node.Kernel(), "via", "descs.recv", 1)
	hpsmon.Count(pr.node.Kernel(), "via", "bytes.recv", int64(desc.XferLen))
	e.done = Completion{VI: vi, Desc: desc, IsRecv: true, Status: StatusOK}
	e.wait(rxFinish, cqDeliver)
}
