package via

import (
	"errors"
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// VI connection states.
const (
	viIdle = iota
	viConnecting
	viConnected
	viBroken
	viClosed
)

// Errors returned by connection management and posting.
var (
	// ErrBroken reports that the connection was broken (reliable
	// delivery violation or peer breakage).
	ErrBroken = errors.New("via: connection broken")
	// ErrNotConnected reports posting on an unconnected VI.
	ErrNotConnected = errors.New("via: vi not connected")
	// ErrTimeout reports that connection setup exceeded the configured
	// ConnTimeout (for example because the fault model ate the request
	// or the acknowledgement).
	ErrTimeout = errors.New("via: connect timed out")
)

// VI is a virtual interface: a connected pair of send and receive work
// queues bound to completion queues.
type VI struct {
	pr     *Provider
	id     uint32
	sendCQ *CQ
	recvCQ *CQ

	recvDescs *sim.Queue[*Desc]

	state        int
	peerPort     string
	peerVI       uint32
	connSig      *sim.Signal
	closeSig     *sim.Signal
	remoteClosed bool

	// reassembly state (network is FIFO per connection). curMsg holds
	// the in-flight message's shared wire buffer when the sender
	// aliased its fragments into one (the zero-copy path); curParts
	// accumulates independent fragment copies otherwise.
	curLen   int
	curMsg   []byte
	curParts [][]byte
	rxMsgs   uint64

	// wire sequence numbers for loss detection: txSeq stamps outgoing
	// data/RDMA frames, rxSeq is the next expected inbound frame. A
	// gap means the fault model dropped a frame; reliable delivery
	// turns that into a broken connection.
	txSeq uint64
	rxSeq uint64

	// rdmaBytes counts bytes landed by inbound RDMA writes.
	rdmaBytes int
}

// NewVI creates an unconnected VI whose work queues complete to the
// given CQs.
func (pr *Provider) NewVI(sendCQ, recvCQ *CQ) *VI {
	if sendCQ == nil || recvCQ == nil {
		panic("via: VI needs both completion queues")
	}
	vi := &VI{
		pr:        pr,
		id:        pr.nextVI,
		sendCQ:    sendCQ,
		recvCQ:    recvCQ,
		recvDescs: sim.NewQueue[*Desc](pr.node.Kernel(), 0),
		connSig:   sim.NewSignal(pr.node.Kernel()),
		closeSig:  sim.NewSignal(pr.node.Kernel()),
	}
	vi.recvDescs.SetLabel("via/desc-wait")
	vi.connSig.SetLabel("via/handshake")
	vi.closeSig.SetLabel("via/close")
	pr.nextVI++
	pr.vis[vi.id] = vi
	return vi
}

// ID reports the VI number on its provider.
func (vi *VI) ID() uint32 { return vi.id }

// Provider reports the owning provider.
func (vi *VI) Provider() *Provider { return vi.pr }

// Connected reports whether the VI is connected.
func (vi *VI) Connected() bool { return vi.state == viConnected }

// Broken reports whether the connection broke.
func (vi *VI) Broken() bool { return vi.state == viBroken }

// RemoteClosed reports whether the peer disconnected.
func (vi *VI) RemoteClosed() bool { return vi.remoteClosed }

// PeerPort reports the peer node's port name (empty before connect).
func (vi *VI) PeerPort() string { return vi.peerPort }

// RecvPosted reports the number of posted, unmatched receive
// descriptors.
func (vi *VI) RecvPosted() int { return vi.recvDescs.Len() }

// Connect performs the client side of connection setup against a
// service number on a remote node, blocking until the acceptor answers.
func (pr *Provider) Connect(p *sim.Proc, vi *VI, remote string, svc int) error {
	if vi.state != viIdle {
		return fmt.Errorf("via: connect on VI in state %d", vi.state)
	}
	vi.state = viConnecting
	pr.node.Overhead(p, connSetupCPU)
	pr.sendControl(p, remote, pkConnReq, vi.id, 0, svc)
	if pr.cfg.ConnTimeout > 0 {
		if _, ok := p.WaitTimeout(vi.connSig, pr.cfg.ConnTimeout); !ok {
			// Tear the VI down before returning so a late ack finds
			// nothing to resurrect.
			vi.state = viBroken
			vi.teardown()
			return ErrTimeout
		}
	} else {
		p.Wait(vi.connSig)
	}
	if vi.state != viConnected {
		return ErrBroken
	}
	return nil
}

// Accept blocks for an inbound connection request, binds a fresh VI to
// it and acknowledges the peer.
func (a *Acceptor) Accept(p *sim.Proc, sendCQ, recvCQ *CQ) (*VI, error) {
	req, ok := a.q.Get(p)
	if !ok {
		return nil, errors.New("via: acceptor closed")
	}
	a.pr.node.Overhead(p, connSetupCPU)
	vi := a.pr.NewVI(sendCQ, recvCQ)
	vi.peerPort = req.srcPort
	vi.peerVI = req.srcVI
	vi.state = viConnected
	a.pr.sendControl(p, req.srcPort, pkConnAck, vi.id, req.srcVI, 0)
	return vi, nil
}

// Close closes the acceptor; pending and future Accept calls fail.
func (a *Acceptor) Close() {
	a.q.Close()
	delete(a.pr.listeners, a.svc)
}

// PostRecv posts a receive descriptor. Descriptors match incoming
// messages in FIFO order; under reliable delivery an arriving message
// with no posted descriptor breaks the connection.
func (vi *VI) PostRecv(p *sim.Proc, desc *Desc) error {
	if err := vi.checkDesc(desc); err != nil {
		return err
	}
	if vi.state == viBroken {
		return ErrBroken
	}
	vi.pr.node.Overhead(p, postRecvCPU)
	hpsmon.Count(vi.pr.node.Kernel(), "via", "descs.posted.recv", 1)
	_ = vi.recvDescs.TryPut(desc)
	return nil
}

// PostSend posts a send descriptor; the NIC picks it up asynchronously
// and a completion arrives on the send CQ.
func (vi *VI) PostSend(p *sim.Proc, desc *Desc) error {
	if err := vi.checkDesc(desc); err != nil {
		return err
	}
	if desc.Len > MaxTransfer {
		return fmt.Errorf("via: descriptor of %d bytes exceeds max transfer %d", desc.Len, MaxTransfer)
	}
	if desc.Data != nil && len(desc.Data) != desc.Len {
		return fmt.Errorf("via: descriptor data length %d != len %d", len(desc.Data), desc.Len)
	}
	switch vi.state {
	case viBroken:
		return ErrBroken
	case viConnected:
	default:
		return ErrNotConnected
	}
	vi.pr.node.Overhead(p, postSendCPU)
	hpsmon.Count(vi.pr.node.Kernel(), "via", "descs.posted.send", 1)
	w := vi.pr.newSendWork()
	w.vi, w.desc = vi, desc
	_ = vi.pr.sendWQ.TryPut(w)
	return nil
}

func (vi *VI) checkDesc(desc *Desc) error {
	if desc == nil || desc.Region == nil || !desc.Region.registered {
		return errors.New("via: descriptor buffer not registered")
	}
	if desc.Len <= 0 || desc.Len > desc.Region.size {
		return fmt.Errorf("via: descriptor length %d outside region of %d", desc.Len, desc.Region.size)
	}
	return nil
}

// Disconnect tears the connection down and notifies the peer. Posted
// receive descriptors are flushed with StatusBroken completions.
func (pr *Provider) Disconnect(p *sim.Proc, vi *VI) {
	if vi.state != viConnected {
		vi.teardown()
		return
	}
	pr.sendControl(p, vi.peerPort, pkDisconnect, vi.id, vi.peerVI, 0)
	vi.state = viClosed
	vi.teardown()
}

// breakLocal marks the VI broken and flushes posted receive
// descriptors with error completions.
func (vi *VI) breakLocal() {
	vi.state = viBroken
	vi.flushRecvs(StatusBroken)
}

func (vi *VI) teardown() {
	vi.flushRecvs(StatusBroken)
	delete(vi.pr.vis, vi.id)
}

func (vi *VI) flushRecvs(st Status) {
	for {
		d, ok := vi.recvDescs.TryGet()
		if !ok {
			return
		}
		d.Status = st
		vi.recvCQ.post(Completion{VI: vi, Desc: d, IsRecv: true, Status: st})
	}
}
