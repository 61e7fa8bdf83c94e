package via

import (
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// CQ is a completion queue. Send and receive work queues of any number
// of VIs on the same provider may be attached to one CQ; completions
// arrive in the order the adapter generates them.
type CQ struct {
	pr *Provider
	q  *sim.Queue[Completion]
}

// NewCQ creates a completion queue on the provider.
func (pr *Provider) NewCQ() *CQ {
	cq := &CQ{pr: pr, q: sim.NewQueue[Completion](pr.node.Kernel(), 0)}
	cq.q.SetLabel("via/cq")
	return cq
}

// Wait blocks until a completion is available and returns it, charging
// the configured wakeup cost (the host-side context switch out of
// VipCQWait) when the waiter actually blocked.
func (cq *CQ) Wait(p *sim.Proc) Completion {
	if c, ok := cq.q.TryGet(); ok {
		return c
	}
	k := cq.pr.node.Kernel()
	t0 := k.Now()
	sc := hpsmon.Begin(p, "via", "cq-wait", "")
	c, ok := cq.q.Get(p)
	sc.End()
	hpsmon.Observe(k, "via", "cq-wait", k.Now()-t0)
	if !ok {
		panic("via: completion queue closed")
	}
	cq.pr.node.Overhead(p, cqWakeup)
	return c
}

// Poll returns a completion without blocking.
func (cq *CQ) Poll() (Completion, bool) { return cq.q.TryGet() }

// Len reports the number of undelivered completions.
func (cq *CQ) Len() int { return cq.q.Len() }

// post delivers a completion to the queue (adapter side).
func (cq *CQ) post(c Completion) { _ = cq.q.TryPut(c) }
