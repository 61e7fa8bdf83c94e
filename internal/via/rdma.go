package via

import (
	"errors"
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// RDMA Write support — the push-model data transfer the paper names as
// future work ("we plan to investigate DataCutter with the push/pull
// data transfer model using RDMA operations"). A sender writes
// directly into a remote registered region; no receive descriptor is
// consumed and no completion is generated at the target (the VIA RDMA
// Write semantics). Senders typically follow the write with a small
// send to notify the peer; VI ordering guarantees the notification
// arrives after the written data.

// ErrRDMAProtection reports an RDMA write outside the bounds of the
// target region, or to an unexported region.
var ErrRDMAProtection = errors.New("via: rdma protection violation")

// RegisterMemRDMA registers a region like RegisterMem and additionally
// exports it as an RDMA target with backing storage; the returned
// handle names it to remote peers.
func (pr *Provider) RegisterMemRDMA(p *sim.Proc, size int) (*MemRegion, uint32) {
	region := pr.RegisterMem(p, size)
	region.rdma = true
	region.bytes = make([]byte, size)
	pr.nextRDMA++
	handle := pr.nextRDMA
	pr.rdmaRegions[handle] = region
	return region, handle
}

// RDMABytes exposes the backing storage of an RDMA-exported region.
func (m *MemRegion) RDMABytes() []byte { return m.bytes }

// PostRDMAWrite posts a descriptor whose payload is written directly
// into the remote region named by handle at the given offset. The
// local completion fires when the adapter has pushed the data; the
// remote side sees nothing until it is notified out of band.
func (vi *VI) PostRDMAWrite(p *sim.Proc, desc *Desc, handle uint32, offset int) error {
	if err := vi.checkDesc(desc); err != nil {
		return err
	}
	if desc.Len > MaxTransfer {
		return fmt.Errorf("via: rdma write of %d bytes exceeds max transfer %d", desc.Len, MaxTransfer)
	}
	if desc.Data != nil && len(desc.Data) != desc.Len {
		return fmt.Errorf("via: rdma descriptor data length %d != len %d", len(desc.Data), desc.Len)
	}
	if offset < 0 {
		return ErrRDMAProtection
	}
	switch vi.state {
	case viBroken:
		return ErrBroken
	case viConnected:
	default:
		return ErrNotConnected
	}
	vi.pr.node.Overhead(p, postSendCPU)
	hpsmon.Count(vi.pr.node.Kernel(), "via", "rdma.writes", 1)
	w := vi.pr.newSendWork()
	w.vi, w.desc = vi, desc
	w.rdma, w.rdmaHandle, w.rdmaOffset = true, handle, offset
	_ = vi.pr.sendWQ.TryPut(w)
	return nil
}

// landRDMA lands an RDMA fragment in the target region. A protection
// violation breaks the connection, as reliable-delivery VIA does.
func (e *rxEngine) landRDMA() {
	pk := e.pk
	region := e.pr.rdmaRegions[pk.rdmaHandle]
	if region == nil || !region.rdma || pk.rdmaOffset+pk.fragLen > region.size {
		e.breakVI()
		return
	}
	if pk.frag != nil {
		copy(region.bytes[pk.rdmaOffset:], pk.frag)
	}
	e.vi.rdmaBytes += pk.fragLen
	e.finish()
}

// RDMABytesReceived reports the total bytes landed in this VI's
// provider by RDMA writes addressed through it (diagnostics).
func (vi *VI) RDMABytesReceived() int { return vi.rdmaBytes }
