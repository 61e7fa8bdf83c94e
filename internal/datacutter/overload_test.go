package datacutter

import (
	"testing"

	"hpsockets/internal/core"
	"hpsockets/internal/sim"
)

// TestCreditWindowConservation drives a credit-armed stream into a
// slow consumer and checks the ledger: every credit lent is returned
// by quiesce, and nothing is lost — the window throttles, it does not
// shed.
func TestCreditWindowConservation(t *testing.T) {
	kinds(t, func(t *testing.T, kind core.Kind) {
		r := newRig(2, kind)
		const total = 40
		const window = 3
		src := func(int) Filter {
			return &funcFilter{process: func(ctx *Context) error {
				out := ctx.Output("s")
				for i := 0; i < total; i++ {
					if err := out.Write(ctx.Proc(), &Buffer{Size: 8 * 1024, Tag: int64(i)}); err != nil {
						return err
					}
				}
				// Quiesce before end-of-work so the ledger is checkable:
				// all credits home means no buffer in flight or parked.
				if err := out.WaitQuiesce(ctx.Proc()); err != nil {
					return err
				}
				return out.EndOfWork(ctx.Proc())
			}}
		}
		var got []int64
		sink := func(int) Filter {
			return &funcFilter{process: func(ctx *Context) error {
				in := ctx.Input("s")
				for {
					b, ok := in.Read(ctx.Proc())
					if !ok {
						return nil
					}
					got = append(got, b.Tag)
					// A slow consumer: credits must pace the producer.
					ctx.Compute(64 * 1024)
				}
			}}
		}
		g := r.rt.Instantiate(GroupSpec{
			Filters: []FilterSpec{
				{Name: "src", New: src, Placement: []string{"n0"}},
				{Name: "dst", New: sink, Placement: []string{"n1"}},
			},
			Streams: []StreamSpec{{
				Name: "s", From: "src", To: "dst",
				CreditWindow: window,
			}},
		})
		r.run(t, g, 1)
		if len(got) != total {
			t.Fatalf("delivered %d buffers, want %d", len(got), total)
		}
		for i, tag := range got {
			if tag != int64(i) {
				t.Fatalf("delivery order broken at %d: got tag %d", i, tag)
			}
		}
		w := g.WriterOf("src", 0, "s")
		if credits, dead := w.CreditState(0); dead || credits != window {
			t.Fatalf("credit state at quiesce = (%d, dead=%v), want (%d, live): credits leaked",
				credits, dead, window)
		}
		if shed := g.ReaderOf("dst", 0, "s").ShedTotal(); shed != 0 {
			t.Fatalf("credit flow control shed %d buffers; backpressure must not drop", shed)
		}
	})
}

// TestDeadlineExpiredShedAtProducer: with DropNewest, a buffer whose
// deadline has already passed at send is shed at the producer, counted
// and reported via OnShed; fresh buffers still flow.
func TestDeadlineExpiredShedAtProducer(t *testing.T) {
	r := newRig(2, core.KindTCP)
	const live, expired = 10, 5
	var shedTags []int64
	var causes []ShedCause
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out := ctx.Output("s")
			for i := 0; i < live; i++ {
				b := &Buffer{Size: 4 * 1024, Tag: int64(i), Deadline: ctx.Now() + 1*sim.Second}
				if err := out.Write(ctx.Proc(), b); err != nil {
					return err
				}
			}
			for i := 0; i < expired; i++ {
				// Deadline equal to now is already missed at send.
				b := &Buffer{Size: 4 * 1024, Tag: int64(100 + i), Deadline: ctx.Now()}
				if err := out.Write(ctx.Proc(), b); err != nil {
					return err
				}
			}
			return out.EndOfWork(ctx.Proc())
		}}
	}
	var delivered int
	sink := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			in := ctx.Input("s")
			for {
				b, ok := in.Read(ctx.Proc())
				if !ok {
					return nil
				}
				if b.Tag >= 100 {
					t.Errorf("expired buffer %d was delivered", b.Tag)
				}
				delivered++
			}
		}}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1"}},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Deadlines: true,
			Shed:      DropNewest,
			OnShed: func(b *Buffer, c ShedCause) {
				shedTags = append(shedTags, b.Tag)
				causes = append(causes, c)
			},
		}},
	})
	r.run(t, g, 1)
	w := g.WriterOf("src", 0, "s")
	if w.ShedAtSend() != expired {
		t.Fatalf("ShedAtSend = %d, want %d", w.ShedAtSend(), expired)
	}
	if delivered != live {
		t.Fatalf("delivered %d buffers, want %d", delivered, live)
	}
	if len(shedTags) != expired {
		t.Fatalf("OnShed observed %d buffers, want %d", len(shedTags), expired)
	}
	for i, c := range causes {
		if c != ShedExpired {
			t.Fatalf("shed cause[%d] = %v, want %v", i, c, ShedExpired)
		}
	}
}

// TestDegradeQualitySendsPartialUpdate: DegradeQuality never drops at
// the producer — an expired buffer ships at quarter resolution, marked
// Degraded, and is still delivered.
func TestDegradeQualitySendsPartialUpdate(t *testing.T) {
	r := newRig(2, core.KindTCP)
	const fullSize = 16 * 1024
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out := ctx.Output("s")
			fresh := &Buffer{Size: fullSize, Tag: 1, Deadline: ctx.Now() + 1*sim.Second}
			if err := out.Write(ctx.Proc(), fresh); err != nil {
				return err
			}
			late := &Buffer{Size: fullSize, Tag: 2, Deadline: ctx.Now()}
			if err := out.Write(ctx.Proc(), late); err != nil {
				return err
			}
			return out.EndOfWork(ctx.Proc())
		}}
	}
	sizes := map[int64]int{}
	degraded := map[int64]bool{}
	sink := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			in := ctx.Input("s")
			for {
				b, ok := in.Read(ctx.Proc())
				if !ok {
					return nil
				}
				sizes[b.Tag] = b.Size
				degraded[b.Tag] = b.Degraded
			}
		}}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1"}},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Deadlines: true,
			Shed:      DegradeQuality,
		}},
	})
	r.run(t, g, 1)
	w := g.WriterOf("src", 0, "s")
	if w.ShedAtSend() != 0 {
		t.Fatalf("DegradeQuality shed %d at send; it must never drop there", w.ShedAtSend())
	}
	if w.DegradedAtSend() != 1 {
		t.Fatalf("DegradedAtSend = %d, want 1", w.DegradedAtSend())
	}
	if len(sizes) != 2 {
		t.Fatalf("delivered %d buffers, want both", len(sizes))
	}
	if degraded[1] || sizes[1] != fullSize {
		t.Fatalf("fresh buffer arrived degraded=%v size=%d, want full %d", degraded[1], sizes[1], fullSize)
	}
	if !degraded[2] || sizes[2] != fullSize>>2 {
		t.Fatalf("late buffer arrived degraded=%v size=%d, want quarter %d", degraded[2], sizes[2], fullSize>>2)
	}
}

// TestDropOldestEvictsFromFullInbox: a bursty producer against a tiny
// inbox and a stalled consumer — DropOldest admits fresh work by
// evicting the oldest buffered element, so the newest buffers win.
func TestDropOldestEvictsFromFullInbox(t *testing.T) {
	r := newRig(2, core.KindTCP)
	const total = 12
	var shed []int64
	src := func(int) Filter {
		return &funcFilter{process: func(ctx *Context) error {
			out := ctx.Output("s")
			for i := 0; i < total; i++ {
				b := &Buffer{Size: 4 * 1024, Tag: int64(i), Deadline: ctx.Now() + 1*sim.Second}
				if err := out.Write(ctx.Proc(), b); err != nil {
					return err
				}
			}
			return out.EndOfWork(ctx.Proc())
		}}
	}
	var got []int64
	sink := func(int) Filter {
		return &funcFilter{
			init: func(ctx *Context) error {
				// Stall so the burst lands on a full inbox before the
				// first read.
				ctx.Proc().Sleep(50 * sim.Millisecond)
				return nil
			},
			process: func(ctx *Context) error {
				in := ctx.Input("s")
				for {
					b, ok := in.Read(ctx.Proc())
					if !ok {
						return nil
					}
					got = append(got, b.Tag)
				}
			},
		}
	}
	g := r.rt.Instantiate(GroupSpec{
		Filters: []FilterSpec{
			{Name: "src", New: src, Placement: []string{"n0"}},
			{Name: "dst", New: sink, Placement: []string{"n1"}, InboxDepth: 2},
		},
		Streams: []StreamSpec{{
			Name: "s", From: "src", To: "dst",
			Deadlines: true,
			Shed:      DropOldest,
			OnShed:    func(b *Buffer, c ShedCause) { shed = append(shed, b.Tag) },
		}},
	})
	r.run(t, g, 1)
	if len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	if len(shed) == 0 {
		t.Fatal("nothing shed despite a full inbox (eviction never triggered)")
	}
	if len(got)+len(shed) != total {
		t.Fatalf("conservation broken: delivered %d + shed %d != produced %d",
			len(got), len(shed), total)
	}
	// The freshest buffer always survives eviction.
	last := got[len(got)-1]
	if last != total-1 {
		t.Fatalf("newest buffer (tag %d) was evicted; last delivered tag %d", total-1, last)
	}
}

// TestIdleCreditStreamOutlivesOpTimeout: on a stream with credits but
// no acks, a connection whose credits are all home owes the writer
// nothing, however many buffers it has carried; its ack reader's op
// timeout is then idleness, not a stall, and must not fail the copy.
// Empty units of work keep the forward path busy (their markers take no
// credit and draw no reply) while the reverse path stays silent for
// several timeouts.
func TestIdleCreditStreamOutlivesOpTimeout(t *testing.T) {
	kinds(t, func(t *testing.T, kind core.Kind) {
		r := newRig(2, kind)
		const per, uows, window = 3, 12, 2
		busy := func(uow int) bool { return uow == 0 || uow == uows-1 }
		src := func(int) Filter {
			return &funcFilter{process: func(ctx *Context) error {
				out, p := ctx.Output("s"), ctx.Proc()
				for i := 0; busy(ctx.UOW()) && i < per; i++ {
					if err := out.Write(p, &Buffer{Size: 8 * 1024, Tag: int64(i)}); err != nil {
						return err
					}
				}
				if err := out.WaitQuiesce(p); err != nil {
					return err
				}
				p.Sleep(400 * sim.Microsecond)
				if credits, dead := out.CreditState(0); dead || credits != window {
					t.Errorf("uow %d: credit state (%d, dead=%v), want (%d, live)", ctx.UOW(), credits, dead, window)
				}
				return out.EndOfWork(p)
			}}
		}
		got := 0
		sink := func(int) Filter {
			return &funcFilter{process: func(ctx *Context) error {
				for {
					if _, ok := ctx.Input("s").Read(ctx.Proc()); !ok {
						return nil
					}
					got++
				}
			}}
		}
		g := r.rt.Instantiate(GroupSpec{
			Filters: []FilterSpec{
				{Name: "src", New: src, Placement: []string{"n0"}},
				{Name: "dst", New: sink, Placement: []string{"n1"}},
			},
			Streams: []StreamSpec{{
				Name: "s", From: "src", To: "dst",
				CreditWindow: window, OpTimeout: sim.Millisecond,
			}},
		})
		r.run(t, g, uows)
		if got != 2*per {
			t.Fatalf("delivered %d buffers, want %d", got, 2*per)
		}
	})
}
