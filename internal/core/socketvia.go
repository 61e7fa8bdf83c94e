package core

import (
	"errors"
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
	"hpsockets/internal/via"
)

// ErrBroken reports that the underlying connection broke: the peer
// crashed, the fault model damaged the stream beyond what the
// transport recovers, or reliable-delivery semantics were violated.
var ErrBroken = errors.New("core: connection broken")

// ErrConnClosed reports sending on a locally closed connection.
var ErrConnClosed = errors.New("core: connection closed")

// ErrTimeout reports an expired deadline: a SetTimeout bound on Send
// or Recv, a DialTimeout during connection setup, or an exhausted
// retransmission budget on the kernel path.
var ErrTimeout = errors.New("core: operation timed out")

// ErrDescriptorExhausted reports a connection broken because the
// receiver's VIA descriptor pool ran dry (the RNR condition the
// credit protocol normally makes impossible; injected descriptor
// pressure triggers it). It wraps ErrBroken, so errors.Is(err,
// ErrBroken) matches both.
var ErrDescriptorExhausted = fmt.Errorf("core: receive descriptor exhausted: %w", ErrBroken)

// SocketVIA message kinds, carried in the descriptor immediate data.
const (
	svData uint64 = iota + 1
	svCredit
	svFIN
	svReady
	svRendReq
	svRendCTS
	svRendDone
)

func svImm(kind uint64, val int) uint64 { return kind<<32 | uint64(uint32(val)) }
func svKind(imm uint64) uint64          { return imm >> 32 }
func svVal(imm uint64) int              { return int(uint32(imm)) }

// ctrlTag marks control descriptors in completions.
type ctrlTag struct{}

// svEndpoint is a node's SocketVIA attachment.
type svEndpoint struct {
	pr  *via.Provider
	cfg SVConfig
}

// NewSocketVIAEndpoint attaches the user-level sockets layer over a
// fresh VIA provider on the node.
func NewSocketVIAEndpoint(node *cluster.Node, net *netsim.Network, viaCfg via.Config, cfg SVConfig) Endpoint {
	cfg.validate()
	if cfg.ChunkSize > via.MaxTransfer {
		panic("core: chunk size exceeds VIA max transfer")
	}
	return &svEndpoint{pr: via.NewProvider(node, net, viaCfg), cfg: cfg}
}

func (e *svEndpoint) Node() *cluster.Node { return e.pr.Node() }
func (e *svEndpoint) Transport() string   { return "socketvia" }

func (e *svEndpoint) Listen(svc int) Listener {
	return &svListener{ep: e, acc: e.pr.Listen(svc)}
}

// Dial opens a SocketVIA connection: it registers and pre-posts the
// receive pools before the VIA connect so the peer's first message
// always finds a descriptor, then waits for the peer's ready message
// (bounded by SVConfig.DialTimeout when set).
func (e *svEndpoint) Dial(p *sim.Proc, remote string, svc int) (Conn, error) {
	c, err := e.newConn(p)
	if err != nil {
		return nil, err
	}
	if err := e.pr.Connect(p, c.vi, remote, svc); err != nil {
		if errors.Is(err, via.ErrTimeout) {
			return nil, ErrTimeout
		}
		return nil, ErrBroken
	}
	if e.cfg.DialTimeout > 0 {
		if _, ok := p.WaitTimeout(c.readySig, e.cfg.DialTimeout); !ok {
			// The ready message never came (lost on the wire, or the
			// acceptor's node died). Tear the VI down so late traffic
			// finds nothing.
			c.markBroken(ErrTimeout)
			e.pr.Disconnect(p, c.vi)
			return nil, ErrTimeout
		}
	} else {
		p.Wait(c.readySig)
	}
	if c.brokenErr != nil {
		return nil, c.brokenErr
	}
	return c, nil
}

type svListener struct {
	ep  *svEndpoint
	acc *via.Acceptor
}

// Accept completes a SocketVIA connection: the VIA accept, pool setup,
// and the ready message that releases the dialer.
func (l *svListener) Accept(p *sim.Proc) (Conn, error) {
	c := l.ep.newConnDeferred(p)
	vi, err := l.acc.Accept(p, c.cq, c.cq)
	if err != nil {
		return nil, err
	}
	if err := c.bind(p, vi); err != nil {
		return nil, err
	}
	c.sendCtrl(p, svReady, 0)
	c.readySig.Fire(nil)
	return c, nil
}

func (l *svListener) Close() { l.acc.Close() }

// newConn builds a connection with its own VI (dialer side).
func (e *svEndpoint) newConn(p *sim.Proc) (*svConn, error) {
	c := e.newConnDeferred(p)
	if err := c.bind(p, e.pr.NewVI(c.cq, c.cq)); err != nil {
		return nil, err
	}
	return c, nil
}

// SetDescPressure threads a deterministic descriptor-exhaustion hook
// down to the VIA provider (see via.Provider.SetDescPressure); the
// fault injector installs it through the Fabric.
func (e *svEndpoint) SetDescPressure(fn func() bool) { e.pr.SetDescPressure(fn) }

// newConnDeferred builds the connection state without a VI (the
// acceptor side receives its VI from Accept).
func (e *svEndpoint) newConnDeferred(p *sim.Proc) *svConn {
	k := e.pr.Node().Kernel()
	c := &svConn{
		ep:       e,
		cq:       e.pr.NewCQ(),
		credits:  e.cfg.Credits,
		credCond: sim.NewCond(k),
		rcvCond:  sim.NewCond(k),
		rendCond: sim.NewCond(k),
		readySig: sim.NewSignal(k),
		sendPool: sim.NewQueue[*via.Desc](k, 0),
		ctrlPool: sim.NewQueue[*via.Desc](k, 0),
	}
	c.credCond.SetLabel("socketvia/credit-wait")
	c.rcvCond.SetLabel("socketvia/rcv-wait")
	c.rendCond.SetLabel("socketvia/rendezvous")
	c.readySig.SetLabel("socketvia/ready")
	c.sendPool.SetLabel("socketvia/send-pool")
	c.ctrlPool.SetLabel("socketvia/ctrl-pool")
	return c
}

// bind attaches the VI, registers the buffer pools, pre-posts every
// receive descriptor and starts the progress process. It fails with
// ErrBroken when the VI broke before setup completed (possible under
// injected faults on the accept path).
func (c *svConn) bind(p *sim.Proc, vi *via.VI) error {
	e := c.ep
	cfg := e.cfg
	c.vi = vi
	node := e.pr.Node()

	recvN := cfg.Credits + cfg.ctrlSlack()
	recvRegion := e.pr.RegisterMem(p, recvN*cfg.ChunkSize)
	for i := 0; i < recvN; i++ {
		d := &via.Desc{Region: recvRegion, Len: cfg.ChunkSize}
		if err := vi.PostRecv(p, d); err != nil {
			c.markBroken(ErrBroken)
			return ErrBroken
		}
	}

	sendN := cfg.Credits
	sendRegion := e.pr.RegisterMem(p, sendN*cfg.ChunkSize)
	backing := make([]byte, sendN*cfg.ChunkSize)
	for i := 0; i < sendN; i++ {
		d := &via.Desc{Region: sendRegion}
		d.Ctx = backing[i*cfg.ChunkSize : (i+1)*cfg.ChunkSize]
		_ = c.sendPool.TryPut(d)
	}

	ctrlN := cfg.ctrlSlack()
	ctrlRegion := e.pr.RegisterMem(p, ctrlN*64)
	for i := 0; i < ctrlN; i++ {
		_ = c.ctrlPool.TryPut(&via.Desc{Region: ctrlRegion, Ctx: ctrlTag{}})
	}

	node.Kernel().Go("sv-pump/"+node.Name(), c.pump)
	return nil
}
