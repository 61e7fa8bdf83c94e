package netsim

import (
	"fmt"
	"strings"
	"testing"

	"hpsockets/internal/sim"
)

// TransmitFunc against Transmit. Each case below is one of the
// contention, condition and fault tests of this package recast as
// data; it runs once with every sender a process calling Transmit in a
// loop and once with every sender a TransmitFunc continuation chain,
// and both runs must log the same send completions, fault verdicts
// and arrivals at the same times in the same order, and leave the same
// port counters, event count and frame pool.

type txFrame struct {
	dst   string
	proto Proto
	size  int
}

type txSender struct {
	src    string
	after  sim.Time
	frames []txFrame
}

type txCase struct {
	name     string
	senders  []txSender
	verdicts []Verdict // scripted conditioned model, when non-nil
	plain    bool      // a model implementing Judge alone
}

func burst(dst string, proto Proto, size, n int) []txFrame {
	out := make([]txFrame, n)
	for i := range out {
		out[i] = txFrame{dst, proto, size}
	}
	return out
}

var txCases = []txCase{
	{name: "uplink serializes concurrent senders", senders: []txSender{
		{src: "a", frames: burst("b", ProtoIP, 500, 1)},
		{src: "a", frames: burst("b", ProtoIP, 500, 1)},
		{src: "a", frames: burst("b", ProtoIP, 500, 1)},
	}},
	{name: "stacks share one port", senders: []txSender{
		{src: "a", frames: burst("b", ProtoVIA, 1000, 3)},
		{src: "a", frames: burst("b", ProtoIP, 1000, 3)},
	}},
	{name: "downlink serializes converging traffic", senders: []txSender{
		{src: "a", frames: burst("c", ProtoVIA, 1000, 1)},
		{src: "b", frames: burst("c", ProtoVIA, 1000, 1)},
	}},
	{name: "many to one", senders: []txSender{
		{src: "a", frames: burst("d", ProtoVIA, 1000, 25)},
		{src: "b", frames: burst("d", ProtoVIA, 700, 25)},
		{src: "c", after: 300, frames: burst("d", ProtoIP, 1000, 25)},
	}},
	{name: "idle link late start", senders: []txSender{
		{src: "a", after: 1000, frames: burst("b", ProtoVIA, 100, 1)},
	}},
	{name: "condition delay", verdicts: []Verdict{{Cond: Condition{Delay: 400}}}, senders: []txSender{
		{src: "a", frames: burst("b", ProtoVIA, 1000, 2)},
	}},
	{name: "condition throttle", verdicts: []Verdict{
		{Cond: Condition{RateMbps: 800}}, {Cond: Condition{RateMbps: 800}},
	}, senders: []txSender{
		{src: "a", frames: burst("c", ProtoVIA, 1000, 1)},
		{src: "b", frames: burst("c", ProtoVIA, 1000, 1)},
	}},
	{name: "condition reorder", verdicts: []Verdict{
		{Cond: Condition{Delay: 5000}}, {Cond: Condition{Reorder: true}},
	}, senders: []txSender{
		{src: "a", frames: []txFrame{{"b", ProtoVIA, 1}, {"b", ProtoVIA, 2}}},
	}},
	{name: "drop reject corrupt", verdicts: []Verdict{
		{Disposition: Reject}, {}, {Disposition: Drop}, {Disposition: Corrupt}, {Disposition: Drop}, {},
	}, senders: []txSender{
		{src: "a", frames: burst("b", ProtoVIA, 100, 4)},
		{src: "b", after: 50, frames: burst("a", ProtoIP, 200, 4)},
	}},
	{name: "plain fault model", plain: true, senders: []txSender{
		{src: "a", frames: burst("b", ProtoVIA, 1000, 2)},
	}},
}

// loggingModel scripts verdicts like condModel and logs each judgement.
type loggingModel struct {
	condModel
	k   *sim.Kernel
	log *[]string
}

func (m *loggingModel) JudgeConditioned(now sim.Time, f *Frame) Verdict {
	v := m.condModel.JudgeConditioned(now, f)
	*m.log = append(*m.log, fmt.Sprintf("%d judge %s->%s %d: %d", int64(m.k.Now()), f.Src, f.Dst, f.Size, v.Disposition))
	return v
}

func runTxCase(c txCase, asFunc bool) []string {
	k := sim.NewKernel()
	n := testNet(k)
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", int64(k.Now()))+fmt.Sprintf(format, args...))
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		h := func(f *Frame) { logf("arrive %s<-%s proto=%d %d corrupt=%v", name, f.Src, f.Proto, f.Size, f.Corrupt) }
		port := n.Attach(name)
		port.Handle(ProtoVIA, h)
		port.Handle(ProtoIP, h)
	}
	switch {
	case c.plain:
		n.SetFaultModel(plainModel{})
	case c.verdicts != nil:
		n.SetFaultModel(&loggingModel{condModel: condModel{verdicts: c.verdicts}, k: k, log: &log})
	}
	for si, s := range c.senders {
		si, s := si, s
		frame := func(i int) *Frame {
			return n.NewFrame(s.src, s.frames[i].dst, s.frames[i].proto, s.frames[i].size, nil)
		}
		if asFunc {
			i := 0
			var next func()
			next = func() {
				if i > 0 {
					logf("sender %d sent %d", si, i-1)
				}
				if i < len(s.frames) {
					i++
					n.TransmitFunc(frame(i-1), next)
				}
			}
			k.After(s.after, next)
			continue
		}
		k.GoAfter(s.after, "tx", func(p *sim.Proc) {
			for i := range s.frames {
				n.Transmit(p, frame(i))
				logf("sender %d sent %d", si, i)
			}
		})
	}
	k.RunAll()
	for _, name := range []string{"a", "b", "c", "d"} {
		p := n.LookupPort(name)
		logf("port %s sent=%d received=%d dropped=%d rejected=%d corrupted=%d tx=%d rx=%d", name,
			p.Sent(), p.Received(), p.Dropped(), p.Rejected(), p.Corrupted(), p.TxBytes(), p.RxBytes())
	}
	logf("events=%d pooled=%d", k.EventsFired(), len(n.framePool))
	return log
}

func TestTransmitFuncMatchesTransmit(t *testing.T) {
	for _, c := range txCases {
		t.Run(c.name, func(t *testing.T) {
			proc, fn := runTxCase(c, false), runTxCase(c, true)
			for i := 0; i < len(proc) && i < len(fn); i++ {
				if proc[i] != fn[i] {
					t.Fatalf("line %d: Transmit %q, TransmitFunc %q", i, proc[i], fn[i])
				}
			}
			if len(proc) != len(fn) {
				t.Fatalf("%d log lines with Transmit, %d with TransmitFunc", len(proc), len(fn))
			}
			if strings.HasSuffix(fn[len(fn)-1], "pooled=0") {
				t.Fatalf("%s: no frame was recycled", fn[len(fn)-1])
			}
		})
	}
}

// TransmitFrom is the wire stage both stacks use: frames leave in
// queue order, one uplink hold each, and the stage is no process.
func TestTransmitFromDrainsQueueInOrder(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	var arrivals []string
	n.Attach("b").Handle(ProtoVIA, func(f *Frame) {
		arrivals = append(arrivals, fmt.Sprintf("%d:%d", int64(k.Now()), f.Size))
	})
	q := sim.NewQueue[*Frame](k, 2)
	n.TransmitFrom(q)
	if k.ProcsSpawned() != 0 {
		t.Fatalf("the wire stage spawned %d processes", k.ProcsSpawned())
	}
	k.Go("nic", func(p *sim.Proc) {
		for _, size := range []int{300, 100, 200} {
			q.Put(p, n.NewFrame("a", "b", ProtoVIA, size, nil))
		}
		p.Sleep(5000)
		q.Put(p, n.NewFrame("a", "b", ProtoVIA, 50, nil))
		q.Close()
	})
	k.RunAll()
	if got, want := fmt.Sprint(arrivals), "[400:300 500:100 700:200 5150:50]"; got != want {
		t.Fatalf("arrivals %s, want %s", got, want)
	}
}
