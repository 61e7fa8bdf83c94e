package core

import (
	"fmt"
	"math/rand"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// RetryPolicy shapes Redial's capped exponential backoff. Jitter
// decorrelates reconnect storms when many peers redial the same node;
// it draws from the explicitly seeded Rand so runs stay reproducible.
type RetryPolicy struct {
	// Attempts is the total number of dial attempts before giving up.
	Attempts int
	// BaseDelay is the pause before the second attempt; each further
	// attempt doubles it up to MaxDelay.
	BaseDelay sim.Time
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay sim.Time
	// Jitter scales each pause by a uniform factor in
	// [1-Jitter/2, 1+Jitter/2]. Requires Rand when non-zero.
	Jitter float64
	// Rand is the seeded source for jitter.
	Rand *rand.Rand
}

// DefaultRetryPolicy returns a policy suited to the simulated fabric:
// eight attempts, 200 us base delay doubling to a 50 ms cap, 20%
// seeded jitter.
func DefaultRetryPolicy(seed int64) RetryPolicy {
	return RetryPolicy{
		Attempts:  8,
		BaseDelay: 200 * sim.Microsecond,
		MaxDelay:  50 * sim.Millisecond,
		Jitter:    0.2,
		Rand:      rand.New(rand.NewSource(seed)),
	}
}

// Redial dials remote/svc until an attempt succeeds, sleeping the
// policy's backoff between attempts. It returns the established
// connection, or the last dial error wrapped with attempt context
// once the budget is exhausted. A failed Dial returns no connection,
// so there is nothing to close between attempts; callers recovering a
// *broken* connection close it first, then Redial a replacement.
func Redial(p *sim.Proc, ep Endpoint, remote string, svc int, pol RetryPolicy) (Conn, error) {
	if pol.Attempts <= 0 {
		panic("core: redial policy needs at least one attempt")
	}
	delay := pol.BaseDelay
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			d := delay
			if pol.Jitter > 0 && pol.Rand != nil {
				d = sim.Time(float64(d) * (1 + pol.Jitter*(pol.Rand.Float64()-0.5)))
			}
			hpsmon.Count(ep.Node().Kernel(), "core", "redial.attempts", 1)
			p.Sleep(d)
			delay *= 2
			if pol.MaxDelay > 0 && delay > pol.MaxDelay {
				delay = pol.MaxDelay
			}
		}
		c, err := ep.Dial(p, remote, svc)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: redial %s svc %d: %d attempts exhausted: %w",
		remote, svc, pol.Attempts, lastErr)
}
