package datacutter

import (
	"errors"
	"fmt"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/fault"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// newFaultRig builds a recovery-armed runtime with a fault plan
// installed.
func newFaultRig(nodes int, kind core.Kind, plan fault.Plan) *rig {
	prof := core.RecoveryProfile()
	k := sim.NewKernel()
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	for i := 0; i < nodes; i++ {
		cl.AddNode(fmt.Sprintf("n%d", i), cluster.DefaultConfig())
	}
	fault.Install(cl, plan)
	fab := core.NewFabric(cl, kind, prof)
	return &rig{k: k, cl: cl, rt: NewRuntime(cl, fab)}
}

// TestFailoverToSurvivingCopy crashes one of two transparent consumer
// copies mid-run: the producer must detect the loss, re-dispatch the
// dead copy's unacknowledged buffers and finish the workload on the
// survivor, with no panic anywhere.
func TestFailoverToSurvivingCopy(t *testing.T) {
	r := newFaultRig(3, core.KindTCP, fault.Plan{
		Seed:    11,
		Crashes: []fault.NodeCrash{{Node: "n2", At: 1 * sim.Millisecond}},
	})
	const perUOW = 60
	received := make([]uint64, 2)
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out := ctx.Output("s")
			for i := 0; i < perUOW; i++ {
				if err := out.Write(ctx.Proc(), &Buffer{Size: 16 * 1024}); err != nil {
					return err
				}
			}
			return out.EndOfWork(ctx.Proc())
		}}
	}
	sink := func(copy int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			in := ctx.Input("s")
			for {
				if _, ok := in.Read(ctx.Proc()); !ok {
					return nil
				}
				received[copy]++
			}
		}}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1", "n2"}},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Policy:     DemandDriven,
			MaxUnacked: 4,
			OpTimeout:  2 * sim.Millisecond,
		}},
	})
	// The crashed copy never finishes, so the group's done signal
	// cannot fire; run the event heap dry instead of waiting on Done().
	g.Start(2)
	r.k.RunAll()
	if err := g.Err(); err != nil {
		t.Fatalf("group error after failover: %v", err)
	}
	w := g.WriterOf("src", 0, "s")
	if w.LiveTargets() != 1 {
		t.Fatalf("live targets = %d, want 1 after crash", w.LiveTargets())
	}
	if w.Redispatched() == 0 {
		t.Fatal("no buffers were re-dispatched to the survivor")
	}
	if received[0] == 0 {
		t.Fatal("survivor copy received nothing")
	}
	// The survivor alone must carry at least one full unit of work:
	// everything after the crash routes to it, and the dead copy's
	// unacknowledged buffers were re-sent there.
	if received[0] < perUOW {
		t.Fatalf("survivor received %d buffers, want at least %d", received[0], perUOW)
	}
}

// TestRedialReArmsOpTimeout is a regression test for redialed
// connections coming up without the stream's OpTimeout armed. A
// healable partition kills both consumer connections, so the writer
// redials copy 0 — and then copy 0's node crashes. A crashed node
// sends nothing, ever: no FIN, no acks. The only way the writer can
// notice is its own per-operation deadline on the *redialed*
// connection; without the re-arm it blocks on the silent connection
// forever and the workload strands mid-stream instead of failing over
// to the surviving copy.
func TestRedialReArmsOpTimeout(t *testing.T) {
	r := newFaultRig(3, core.KindSocketVIA, fault.Plan{
		Seed: 5,
		Partitions: []fault.Partition{
			{A: "n0", B: "n1", From: 1 * sim.Millisecond, To: 1200 * sim.Microsecond},
			{A: "n0", B: "n2", From: 1 * sim.Millisecond, To: 1200 * sim.Microsecond},
		},
		Crashes: []fault.NodeCrash{{Node: "n1", At: 6 * sim.Millisecond}},
	})
	const total = 200
	// Re-dispatch can deliver a buffer twice (delivered-but-unacked
	// buffers are reclaimed at teardown), so coverage is counted by
	// distinct tag, shared across copies.
	seen := map[int64]bool{}
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out := ctx.Output("s")
			for i := 0; i < total; i++ {
				if err := out.Write(ctx.Proc(), &Buffer{Size: 16 * 1024, Tag: int64(i)}); err != nil {
					return err
				}
				// Pace the offered load so the workload is still
				// mid-stream at the partition and at the crash.
				ctx.Proc().Sleep(50 * sim.Microsecond)
			}
			return out.EndOfWork(ctx.Proc())
		}}
	}
	// The sinks poll: losing every producer connection ends the unit of
	// work from the reader's point of view, but here the producer
	// redials, so a copy keeps asking until the workload is covered —
	// with a virtual-time bound so a stranded run terminates.
	sink := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			in := ctx.Input("s")
			for len(seen) < total && ctx.Proc().Now() < 5*sim.Second {
				if b, ok := in.Read(ctx.Proc()); ok {
					seen[b.Tag] = true
				} else {
					ctx.Proc().Sleep(200 * sim.Microsecond)
				}
			}
			return nil
		}}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1", "n2"}},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Policy:         DemandDriven,
			OpTimeout:      1 * sim.Millisecond,
			RedialAttempts: 2,
			RedialSeed:     9,
		}},
	})
	// The crashed copy never finishes, so the done signal cannot fire;
	// run the event heap dry instead of waiting on Done().
	g.Start(1)
	end := r.k.RunAll()
	if err := g.Err(); err != nil {
		t.Fatalf("group error: %v", err)
	}
	w := g.WriterOf("src", 0, "s")
	// Redial one: copy 0 after the partition heals. Redial two is the
	// regression's teeth: only a re-armed timeout detects the crashed
	// copy 0 and brings copy 1 back instead.
	if w.Redials() < 2 {
		t.Fatalf("redials = %d, want >= 2 (OpTimeout not re-armed on redialed conn?)", w.Redials())
	}
	if len(seen) < total {
		t.Fatalf("delivered %d distinct buffers, want %d (writer stuck on silent redialed conn?)", len(seen), total)
	}
	// Without the re-arm the run strands until the sinks' give-up
	// bound; with it, failover completes promptly.
	if limit := 1 * sim.Second; end > limit {
		t.Fatalf("run ended at %v, want well under %v", end, limit)
	}
}

// TestWriteToFailedTargetBooksNothing: WriteTo has no failover, so a
// copy its ack reader has already failed over must refuse the buffer
// before anything is booked — no send counted, no credit taken, no
// in-flight entry on a connection nobody will reclaim it from — and the
// buffers that were in flight when the copy died are still accounted
// for, re-dispatched by EndOfWork or reported to OnShed.
func TestWriteToFailedTargetBooksNothing(t *testing.T) {
	r := newFaultRig(3, core.KindTCP, fault.Plan{
		Seed:    7,
		Crashes: []fault.NodeCrash{{Node: "n2", At: 1700 * sim.Microsecond}},
	})
	const window = 4
	var refused error
	var sentBefore, sentAfter []uint64
	var creditsBefore, creditsAfter int
	var deadAfter bool
	accounted := map[int64]int{}
	produced := 0
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out, p := ctx.Output("s"), ctx.Proc()
			// Alternate between the copies until copy 1, which dies with a
			// buffer unacknowledged, is failed over by its ack reader's
			// timeout; copy 0 stays busy, so its connection stays healthy.
			for i := 0; i < 40; i++ {
				target := i % 2
				if _, dead := out.CreditState(1); dead {
					break
				} else if i >= 6 {
					target = 0
				}
				produced++
				if err := out.WriteTo(p, target, &Buffer{Size: 8 * 1024, Tag: int64(i)}); err != nil {
					return err
				}
				p.Sleep(300 * sim.Microsecond)
			}
			sentBefore = out.Sent()
			creditsBefore, _ = out.CreditState(1)
			refused = out.WriteTo(p, 1, &Buffer{Size: 8 * 1024, Tag: 99})
			sentAfter = out.Sent()
			creditsAfter, deadAfter = out.CreditState(1)
			return out.EndOfWork(p)
		}}
	}
	sink := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			for {
				if _, ok := ctx.Input("s").Read(ctx.Proc()); !ok {
					return nil
				}
				// Slow enough that copy 1 dies with a buffer unacknowledged.
				ctx.Compute(800 * sim.Microsecond)
			}
		}}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1", "n2"}},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Acks: true, CreditWindow: window, OpTimeout: 1 * sim.Millisecond,
			OnShed:    func(b *Buffer, c ShedCause) { accounted[b.Tag]++ },
			OnDeliver: func(b *Buffer) { accounted[b.Tag]++ },
		}},
	})
	g.Start(1)
	r.k.RunAll()
	if err := g.Err(); err != nil {
		t.Fatalf("group error: %v", err)
	}
	if !errors.Is(refused, core.ErrConnClosed) {
		t.Fatalf("WriteTo to a failed copy returned %v, want core.ErrConnClosed", refused)
	}
	if !deadAfter {
		t.Fatal("copy 1 still live: the ack reader never failed it over (test exercises nothing)")
	}
	if fmt.Sprint(sentAfter) != fmt.Sprint(sentBefore) {
		t.Fatalf("Sent() moved from %v to %v for a buffer that was not sent", sentBefore, sentAfter)
	}
	if creditsAfter != creditsBefore {
		t.Fatalf("the refused buffer took a credit: %d -> %d", creditsBefore, creditsAfter)
	}
	for tag := int64(0); tag < int64(produced); tag++ {
		if accounted[tag] == 0 {
			t.Fatalf("buffer %d was neither delivered nor reported to OnShed", tag)
		}
	}
	if accounted[99] != 0 {
		t.Fatal("the refused buffer was delivered or shed")
	}
}
