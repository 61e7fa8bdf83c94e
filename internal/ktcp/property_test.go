package ktcp

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"hpsockets/internal/sim"
)

// TestPropertyStreamIntegrityRandomSizes drives a random interleaving
// of real and size-only sends through the stack and reads with random
// buffer sizes, checking that every real byte arrives at its exact
// stream offset.
func TestPropertyStreamIntegrityRandomSizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(2, LinuxCLANConfig())
		l := r.stacks[1].Listen(1)

		type region struct {
			off  int
			data []byte
		}
		var regions []region
		total := 0
		nOps := rng.Intn(8) + 2
		ops := make([]func(p *sim.Proc, c *Conn), 0, nOps)
		for i := 0; i < nOps; i++ {
			if rng.Intn(2) == 0 {
				data := make([]byte, rng.Intn(5000)+1)
				rng.Read(data)
				regions = append(regions, region{off: total, data: data})
				total += len(data)
				ops = append(ops, func(p *sim.Proc, c *Conn) { c.Send(p, data) })
			} else {
				n := rng.Intn(20000) + 1
				total += n
				ops = append(ops, func(p *sim.Proc, c *Conn) { c.SendSize(p, n) })
			}
		}

		got := make([]byte, total)
		ok := true
		r.k.Go("srv", func(p *sim.Proc) {
			c, err := l.Accept(p)
			if err != nil {
				ok = false
				return
			}
			off := 0
			for off < total {
				n := rng.Intn(8000) + 1
				if n > total-off {
					n = total - off
				}
				m, err := c.Recv(p, got[off:off+n])
				off += m
				if err == io.EOF {
					break
				}
			}
			if off != total {
				ok = false
			}
		})
		r.k.Go("cli", func(p *sim.Proc) {
			c, err := r.stacks[0].Connect(p, "b", 1)
			if err != nil {
				ok = false
				return
			}
			for _, op := range ops {
				op(p, c)
			}
			c.Close(p)
		})
		r.k.RunAll()
		if !ok {
			return false
		}
		for _, reg := range regions {
			for i, b := range reg.data {
				if got[reg.off+i] != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWindowStillDelivers(t *testing.T) {
	cfg := LinuxCLANConfig()
	cfg.sndBuf = 4 * cfg.MSS
	cfg.rcvBuf = 4 * cfg.MSS
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	const total = 500_000
	var got int
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 3000)
		for {
			n, err := c.Recv(p, buf)
			got += n
			if err == io.EOF {
				return
			}
		}
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		c.SendSize(p, total)
		c.Close(p)
	})
	r.k.RunAll()
	if got != total {
		t.Fatalf("got %d, want %d", got, total)
	}
}

func TestBidirectionalSimultaneousBulk(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	l := r.stacks[1].Listen(1)
	const each = 1 << 20
	counts := [2]int{}
	run := func(idx int, c *Conn) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			done := make(chan struct{}) // unused; keep sequential
			_ = done
			buf := make([]byte, 32*1024)
			for {
				n, err := c.Recv(p, buf)
				counts[idx] += n
				if err == io.EOF {
					return
				}
			}
		}
	}
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		r.k.Go("srv-rx", run(0, c))
		c.SendSize(p, each)
		c.Close(p)
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		r.k.Go("cli-rx", run(1, c))
		c.SendSize(p, each)
		c.Close(p)
	})
	r.k.RunAll()
	if counts[0] != each || counts[1] != each {
		t.Fatalf("received %v, want %d each way", counts, each)
	}
}

func TestWindowNeverOverrunsReceiveBuffer(t *testing.T) {
	// Instrumented invariant: buffered bytes at the receiver never
	// exceed rcvBuf even when the reader stalls arbitrarily.
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	maxBuffered := 0
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		for i := 0; i < 50; i++ {
			p.Sleep(500 * sim.Microsecond)
			if b := c.Buffered(); b > maxBuffered {
				maxBuffered = b
			}
		}
		buf := make([]byte, 64*1024)
		for {
			if _, err := c.Recv(p, buf); err == io.EOF {
				return
			}
		}
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		c.SendSize(p, 2<<20)
		c.Close(p)
	})
	r.k.RunAll()
	if maxBuffered > cfg.rcvBuf {
		t.Fatalf("receive buffer grew to %d, advertised window was %d", maxBuffered, cfg.rcvBuf)
	}
	if maxBuffered == 0 {
		t.Fatal("no buffering observed; probe broken")
	}
}

func TestSegmentCountMatchesMSS(t *testing.T) {
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	const total = 100 * 1460 // exactly 100 MSS
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 64*1024)
		for {
			if _, err := c.Recv(p, buf); err == io.EOF {
				return
			}
		}
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		c.SendSize(p, total)
		c.Close(p)
	})
	r.k.RunAll()
	// The advertised window may split a segment at a non-MSS boundary
	// once or twice during the run, so allow a little slack above the
	// minimum of exactly total/MSS segments.
	if got := r.stacks[0].SegmentsOut(); got < 100 || got > 105 {
		t.Fatalf("segments out = %d, want 100..105", got)
	}
}
