// Circuit breaker for the DW-backed multistore path. The serving layer
// counts consecutive queries whose multistore plan collapsed onto the HV
// fallback because DW retries were exhausted; once the count reaches the
// threshold the breaker opens and queries are routed onto the forced
// HV-only path (multistore.System.RunDegraded) instead of burning retry
// budget against a store that is down. After a cooldown the breaker
// half-opens and lets exactly one probe query through the normal path:
// success closes the breaker, another DW exhaustion re-opens it.
package serve

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed is normal service: queries take the multistore path.
	BreakerClosed BreakerState = iota
	// BreakerOpen routes every query onto the degraded HV-only path.
	BreakerOpen
	// BreakerHalfOpen lets a single probe query try the multistore path.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The breaker's calibration: DefaultBreakerThreshold consecutive DW
// exhaustions trip it, and it half-opens after DefaultBreakerCooldown of
// wall time.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = time.Second
)

// breaker is the state machine. The clock is injected so tests can drive
// the cooldown deterministically.
type breaker struct {
	mu  sync.Mutex
	now func() time.Time

	state    BreakerState
	failures int       // consecutive DW exhaustions while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	trips    int
	probes   int
}

func newBreaker(now func() time.Time) *breaker { return &breaker{now: now} }

// allow decides the path for the next query: true means the multistore
// path, false means the degraded HV-only path. In the half-open state the
// first caller claims the probe slot (and must later report a verdict or
// release the slot); everyone else stays degraded until the probe
// resolves.
func (b *breaker) allow() (normal bool, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < DefaultBreakerCooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		b.probes++
		return true, true
	}
	return true, false
}

// recordSuccess reports a query that exercised DW and came back clean.
func (b *breaker) recordSuccess(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	b.state = BreakerClosed
	b.failures = 0
}

// recordFailure reports a DW-exhaustion fallback. While closed it counts
// toward the threshold; a failed half-open probe re-opens immediately.
func (b *breaker) recordFailure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		b.trip()
		return
	}
	if b.state != BreakerClosed {
		return
	}
	b.failures++
	if b.failures >= DefaultBreakerThreshold {
		b.trip()
	}
}

// releaseProbe returns an unused probe slot: the probe query never
// reached a DW verdict (it was HV-only by plan, shed, or abandoned), so
// the breaker stays half-open for the next caller.
func (b *breaker) releaseProbe(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.trips++
}

// snapshot returns the current state and counters.
func (b *breaker) snapshot() (state BreakerState, trips, probes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.probes
}
