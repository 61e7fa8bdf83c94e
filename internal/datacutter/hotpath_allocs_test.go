package datacutter

import (
	"testing"

	"hpsockets/internal/core"
)

// streamHotPathAllocs is what one more buffer through writeTo, the
// connection reader, next/deliver and (where armed) the ack reader
// allocated at commit d1b682c, transport included, per stream kind.
// Four of the six benchmark workloads run that path once per message
// under a 1 % allocs_per_msg bound.
var streamHotPathAllocs = []struct {
	name     string
	spec     StreamSpec
	tcp, via float64
}{
	{"round-robin", StreamSpec{}, 3.013, 7.504},
	{"demand-driven", StreamSpec{Policy: DemandDriven, MaxUnacked: 4}, 4.334, 10.086},
	{"credits", StreamSpec{CreditWindow: 4}, 4.000, 9.751},
}

func TestStreamHotPathAllocs(t *testing.T) {
	run := func(kind core.Kind, ss StreamSpec, n int) float64 {
		return testing.AllocsPerRun(3, func() {
			r := newRig(2, kind)
			ss.Name, ss.From, ss.To = "s", "src", "dst"
			g := r.rt.Instantiate(GroupSpec{
				Filters: []FilterSpec{
					{Name: "src", New: source(n, 2048), Placement: []string{"n0"}},
					{Name: "dst", New: func(int) Filter {
						return &funcFilter{process: func(ctx *Context) error {
							for {
								if _, ok := ctx.Input("s").Read(ctx.Proc()); !ok {
									return nil
								}
							}
						}}
					}, Placement: []string{"n1"}},
				},
				Streams: []StreamSpec{ss},
			})
			r.run(t, g, 1)
		})
	}
	for _, c := range streamHotPathAllocs {
		for _, on := range []struct {
			kind core.Kind
			max  float64
		}{{core.KindTCP, c.tcp}, {core.KindSocketVIA, c.via}} {
			kind, max := on.kind, on.max
			// The difference of two runs leaves set-up out; a run's count
			// wobbles by one or two allocations in the runtime, by up to
			// ten under the race detector. What the pin is for is far
			// above that: the window's re-grown slice cost 0.33.
			per := (run(kind, c.spec, 2000) - run(kind, c.spec, 1000)) / 1000
			if per > max+0.02 {
				t.Errorf("%s over %v: %.3f allocations per buffer, commit d1b682c made %.3f", c.name, kind, per, max)
			}
		}
	}
}
