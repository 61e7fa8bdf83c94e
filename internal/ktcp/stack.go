package ktcp

import (
	"errors"
	"fmt"

	"hpsockets/internal/bytebuf"
	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// segment kinds.
type segKind uint8

const (
	segSYN segKind = iota
	segSYNACK
	segData
	segAck
	segFIN
)

// segment is the TCP/IP wire unit carried in netsim frames. Every
// segment from an established connection piggybacks the current
// cumulative ack and advertised window.
type segment struct {
	kind    segKind
	srcPort string
	srcConn uint32
	dstConn uint32
	svc     int

	seq    int64
	length int
	data   []bytebuf.Chunk

	cumAck int64
	rwnd   int

	// home is the stack whose free list owns the segment, nil for a
	// segment that is never pooled. Only segments the receive path
	// fully consumes are pooled (acks, SYNACKs, and — when
	// retransmission is off — data and FIN); segments the sender must
	// retain for go-back-N, and SYNs parked in a listener queue, never
	// are.
	home *Stack
}

// softItem is one unit of softnet work: an inbound segment, or (with
// flushConn set) an ack-flush request queued by the delayed-ack timer
// — flushForce marks a reader that opened the advertised window. The
// flush request is inlined rather than boxed behind a pointer: softnet
// consumes one softItem per received segment, so the item must not
// drag an allocation along.
type softItem struct {
	seg        *segment
	flushConn  *Conn
	flushForce bool
}

// synKey identifies one connect attempt across SYN retransmissions.
type synKey struct {
	port string
	conn uint32
}

// Listener accepts inbound connections on a service number.
type Listener struct {
	st  *Stack
	svc int
	q   *sim.Queue[*segment]
}

// Stack is the kernel network stack of one node. Its kernel half
// (softnet, the connections' transmit engines, the adapter's egress
// stages) runs as event-context continuations (engine.go) and starts no
// process; the blocking calls (Accept, Connect, Send, Recv, Close) run
// on the application's threads.
type Stack struct {
	node *cluster.Node
	net  *netsim.Network
	cfg  Config

	dma *sim.Serializer
	// stackLock serializes per-segment transmit processing, modelling
	// the coarse kernel locking of Linux 2.2.
	stackLock *sim.Serializer

	softQ     *sim.Queue[softItem]
	ackQ      *sim.Queue[*segment]
	nicQ      *sim.Queue[*netsim.Frame]
	wireFIFO  *sim.Queue[*netsim.Frame]
	conns     map[uint32]*Conn
	nextConn  uint32
	listeners map[int]*Listener

	// SYN dedup: retransmitted SYNs must not spawn ghost connections.
	// synSeen marks handshakes queued for accept; synConns maps
	// accepted handshakes to their connection so a lost SYNACK can be
	// repeated. Lookup only — never iterated.
	synSeen  map[synKey]bool
	synConns map[synKey]*Conn

	segsIn  uint64
	segsOut uint64
	acksOut uint64

	// segPool recycles consumed segments. The receiving stack frees
	// what the sender allocated, and freeSeg files a segment back in
	// the pool it was taken from — a pool that kept what its stack
	// consumed would sit empty at the sending end of a one-way stream
	// and grow without bound at the other. Both stacks live on one
	// kernel, so reaching into the peer's pool is race-free.
	segPool []*segment
}

// allocSeg returns a segment, recycled when poolable. Data and FIN
// segments are poolable only when retransmission is off; callers pass
// st.cfg.RTO <= 0 for those and true for acks and SYNACKs.
func (st *Stack) allocSeg(poolable bool) *segment {
	if !poolable {
		return &segment{}
	}
	if n := len(st.segPool); n > 0 {
		s := st.segPool[n-1]
		st.segPool[n-1] = nil
		st.segPool = st.segPool[:n-1]
		return s
	}
	return &segment{home: st}
}

// freeSeg recycles a consumed pooled segment (no-op otherwise) into
// its home stack's pool. The chunk slice keeps its capacity for the
// next TakeInto, but every element is cleared so no payload reference
// outlives the segment.
func freeSeg(s *segment) {
	if s == nil || s.home == nil {
		return
	}
	clear(s.data)
	*s = segment{home: s.home, data: s.data[:0]}
	s.home.segPool = append(s.home.segPool, s)
}

// NewStack attaches a kernel TCP stack to the node and starts softnet
// and the adapter's egress stages. None of them is a process.
func NewStack(node *cluster.Node, net *netsim.Network, cfg Config) *Stack {
	if cfg.MSS <= 0 || cfg.sndBuf < cfg.MSS || cfg.rcvBuf < cfg.MSS {
		panic("ktcp: invalid config")
	}
	k := node.Kernel()
	st := &Stack{
		node:      node,
		net:       net,
		cfg:       cfg,
		dma:       sim.NewSerializer(k),
		stackLock: sim.NewSerializer(k),
		softQ:     sim.NewQueue[softItem](k, 0),
		ackQ:      sim.NewQueue[*segment](k, 0),
		nicQ:      sim.NewQueue[*netsim.Frame](k, nicQDepth),
		wireFIFO:  sim.NewQueue[*netsim.Frame](k, wireFIFODepth),
		conns:     make(map[uint32]*Conn),
		nextConn:  1,
		listeners: make(map[int]*Listener),
		synSeen:   make(map[synKey]bool),
		synConns:  make(map[synKey]*Conn),
	}
	st.dma.SetLabel("ktcp/dma")
	st.stackLock.SetLabel("ktcp/stack-lock")
	st.softQ.SetLabel("ktcp/softnet")
	st.ackQ.SetLabel("ktcp/ack-queue")
	st.nicQ.SetLabel("ktcp/nic-queue")
	st.wireFIFO.SetLabel("ktcp/wire-fifo")
	node.Port().Handle(netsim.ProtoIP, func(f *netsim.Frame) {
		if f.Corrupt {
			// Checksum failure: the segment is discarded as if lost;
			// retransmission (when enabled) recovers it.
			hpsmon.Count(k, "ktcp", "checksum.drops", 1)
			freeSeg(f.Payload.(*segment))
			return
		}
		_ = st.softQ.TryPut(softItem{seg: f.Payload.(*segment)})
	})
	st.startSoftnet(k)
	st.startEgress(k)
	return st
}

// Node reports the stack's host.
func (st *Stack) Node() *cluster.Node { return st.node }

// SegmentsIn and SegmentsOut report wire segment counters.
func (st *Stack) SegmentsIn() uint64 { return st.segsIn }

// SegmentsOut reports transmitted data segment count.
func (st *Stack) SegmentsOut() uint64 { return st.segsOut }

// Listen binds a service number.
func (st *Stack) Listen(svc int) *Listener {
	if _, ok := st.listeners[svc]; ok {
		panic(fmt.Sprintf("ktcp: service %d already bound on %s", svc, st.node.Name()))
	}
	l := &Listener{st: st, svc: svc, q: sim.NewQueue[*segment](st.node.Kernel(), 0)}
	l.q.SetLabel("ktcp/accept")
	st.listeners[svc] = l
	return l
}

// Close unbinds the listener; blocked Accepts fail.
func (l *Listener) Close() {
	l.q.Close()
	delete(l.st.listeners, l.svc)
}

// Accept blocks for an inbound connection and completes the handshake.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	syn, ok := l.q.Get(p)
	if !ok {
		return nil, errors.New("ktcp: listener closed")
	}
	st := l.st
	st.node.Overhead(p, connSetupCPU)
	c := st.newConn()
	c.peerPort = syn.srcPort
	c.peerConn = syn.srcConn
	c.established = true
	c.sndLimit = int64(st.cfg.rcvBuf) // peer buffer, symmetric config
	st.synConns[synKey{syn.srcPort, syn.srcConn}] = c
	c.connSig.Fire(nil)
	synack := st.allocSeg(true)
	synack.kind, synack.srcPort, synack.srcConn, synack.dstConn =
		segSYNACK, st.node.Name(), c.id, syn.srcConn
	st.nicQ.Put(p, st.controlFrame(syn.srcPort, synack))
	return c, nil
}

// Connect opens a connection to a service on a remote node, blocking
// for the handshake round trip. With RTO configured, a lost SYN or
// SYNACK is retransmitted with capped exponential backoff until
// MaxRetries is exhausted, then Connect fails with ErrTimeout.
func (st *Stack) Connect(p *sim.Proc, remote string, svc int) (*Conn, error) {
	st.node.Overhead(p, connSetupCPU)
	c := st.newConn()
	c.peerPort = remote
	syn := &segment{
		kind: segSYN, srcPort: st.node.Name(), srcConn: c.id, svc: svc,
	}
	st.nicQ.Put(p, st.controlFrame(remote, syn))
	if st.cfg.RTO > 0 {
		for attempt := 0; ; attempt++ {
			if _, ok := p.WaitTimeout(c.connSig, c.rtoDelay()); ok {
				break
			}
			if attempt >= st.cfg.MaxRetries {
				delete(st.conns, c.id)
				c.fail(ErrTimeout)
				return nil, ErrTimeout
			}
			c.retries++ // reuse the RTO backoff schedule for the SYN
			hpsmon.Count(st.node.Kernel(), "ktcp", "syn.retransmits", 1)
			st.nicQ.Put(p, st.controlFrame(remote, syn))
		}
		c.retries = 0
	} else {
		p.Wait(c.connSig)
	}
	if !c.established {
		return nil, errors.New("ktcp: connect failed")
	}
	return c, nil
}

func (st *Stack) newConn() *Conn {
	k := st.node.Kernel()
	c := &Conn{
		st:        st,
		id:        st.nextConn,
		connSig:   sim.NewSignal(k),
		closeDone: sim.NewSignal(k),
		sndCond:   sim.NewCond(k),
		rcvCond:   sim.NewCond(k),
	}
	c.onAckTimer = func() { _ = st.softQ.TryPut(softItem{flushConn: c}) }
	c.connSig.SetLabel("ktcp/handshake")
	c.closeDone.SetLabel("ktcp/close")
	c.sndCond.SetLabel("ktcp/snd-buf")
	c.rcvCond.SetLabel("ktcp/rcv-buf")
	st.nextConn++
	st.conns[c.id] = c
	c.startTx(k)
	return c
}

// controlFrame wraps a segment with no payload (SYN, SYNACK, FIN) for
// the NIC queue.
func (st *Stack) controlFrame(dst string, seg *segment) *netsim.Frame {
	return st.net.NewFrame(st.node.Name(), dst, netsim.ProtoIP, headerSize, seg)
}

// startEgress starts the three stages between softnet or a
// connection's transmit engine and the wire. They are hardware and
// bookkeeping, each a chain of event-context continuations (DESIGN.md
// §14): every step books what the blocking call would and runs where
// that call's wake-up would have fired. The closures are built once
// here; a frame's passage allocates nothing.
func (st *Stack) startEgress(k *sim.Kernel) {
	// The ack stage drains generated acks into the NIC queue so
	// softnet itself never blocks on a full one.
	var ackNext func(bool)
	ackGot := func(seg *segment, ok bool) {
		if !ok {
			return
		}
		// Acks of a connection that is gone are dropped in this loop,
		// not by a nested call each: a backlog of them costs no stack.
		for {
			if c := st.conns[seg.srcConn]; c != nil && c.peerConn != 0 {
				seg.dstConn = c.peerConn
				st.nicQ.PutFunc(st.net.NewFrame(st.node.Name(), c.peerPort, netsim.ProtoIP,
					ackSize, seg), ackNext)
				return
			}
			freeSeg(seg)
			if seg, ok = st.ackQ.TryGet(); !ok {
				ackNext(true)
				return
			}
		}
	}
	ackNext = func(bool) { st.ackQ.GetFunc(ackGot) }

	// The DMA stage fetches each queued frame's payload across the PCI
	// bus and hands it to the wire stage; the bounded wireFIFO
	// pipelines the two. inDMA is the frame the engine is busy with.
	var inDMA *netsim.Frame
	var dmaNext func(bool)
	dmaDone := func() {
		f := inDMA
		inDMA = nil
		st.wireFIFO.PutFunc(f, dmaNext)
	}
	dmaGot := func(f *netsim.Frame, ok bool) {
		if !ok {
			return
		}
		inDMA = f
		seg := f.Payload.(*segment)
		st.dma.UseFunc(dmaPerOp+sim.Time(float64(seg.length)*dmaPerByte+0.5), 0, dmaDone)
	}
	dmaNext = func(bool) { st.nicQ.GetFunc(dmaGot) }

	k.After(0, func() { ackNext(true) })
	k.After(0, func() { dmaNext(true) })
	st.net.TransmitFrom(st.wireFIFO)
}
