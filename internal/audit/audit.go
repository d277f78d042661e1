// Package audit is the always-on integrity plane: a background scrubber
// that incrementally walks the multistore's view catalogs under live
// serving and verifies the invariants the system otherwise only checks
// at recovery — per-view content checksums, Vh ∩ Vd disjointness,
// storage/transfer-budget conservation, and WAL/state consistency.
// Violations surface as typed ErrAuditViolation events; in repair mode,
// corrupt views are self-healed by
// recomputation through the HV fallback path (charged to RECOVERY) and
// unrepairable ones are quarantined online, so the multistore converges
// back to a clean design without a restart.
//
// The scrubber is rate-limited (a bounded chunk of views per tick, a
// configurable pause between ticks) and cooperates with the serving
// plane's drain barrier through Config.Quiesce: each chunk runs while
// holding the barrier for read, exactly as an executing query does, so
// scrubbing and online reorganization strictly alternate and a chunk
// observes the catalog either entirely before or entirely after a
// reorganization — never a torn mix. Within the backend, every audit
// entry point serializes under the system mutex, so the same holds even
// without a serving frontend.
package audit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"miso/internal/multistore"
)

// ErrAuditViolation is the sentinel every reported integrity violation
// wraps; callers match it with errors.Is.
var ErrAuditViolation = errors.New("audit: integrity violation")

// ViolationError carries the violations behind an ErrAuditViolation.
type ViolationError struct {
	Violations []multistore.AuditViolation
}

func (e *ViolationError) Error() string {
	if len(e.Violations) == 1 {
		return "audit: integrity violation: " + e.Violations[0].String()
	}
	return fmt.Sprintf("audit: %d integrity violations (first: %s)",
		len(e.Violations), e.Violations[0].String())
}

func (e *ViolationError) Unwrap() error { return ErrAuditViolation }

// Families lists the invariant families a full audit pass verifies, in
// reporting order.
func Families() []string {
	return []string{
		multistore.InvChecksum,
		multistore.InvDisjoint,
		multistore.InvBudget,
		multistore.InvAccounting,
		multistore.InvWAL,
	}
}

// Config tunes the scrubber. The zero value scrubs 8 views per chunk
// every 5ms in observe-only mode with no drain-barrier hook.
type Config struct {
	// Interval is the pause between scrub chunks — the rate limit that
	// keeps the scrubber from starving the serialized query flow.
	Interval time.Duration
	// ChunkViews bounds the views verified per chunk (<= 0 uses 8).
	ChunkViews int
	// Repair enables self-healing: failing views are recomputed through
	// the HV fallback path or quarantined, invariant breaches are healed
	// where possible. Without it the scrubber only observes and counts.
	Repair bool
	// Quiesce, when set, is called around every chunk and full-pass
	// invariant audit; it registers the scrubber with the serving plane's
	// drain barrier (serve.Server.Quiesce) and returns the release
	// function. Nil is fine when no serving frontend is running.
	Quiesce func() (release func())
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.ChunkViews <= 0 {
		c.ChunkViews = 8
	}
	return c
}

// maxKeptViolations bounds the violations retained in the report; the
// counters keep counting past it.
const maxKeptViolations = 256

// Report is a snapshot of what the scrubber has seen.
type Report struct {
	// Passes counts completed full passes (catalog walk wrapped plus one
	// system-invariant audit); Chunks counts individual scrub chunks.
	Passes int
	Chunks int
	// Detected counts every violation found; Repaired those self-healed;
	// Unrepaired those only observed or quarantined. Persistent
	// violations found again on a later pass count again.
	Detected   int
	Repaired   int
	Unrepaired int
	// Violations holds the first maxKeptViolations violations;
	// DroppedViolations counts the rest.
	Violations        []multistore.AuditViolation
	DroppedViolations int
	// Fatal is a torn-WAL error that stopped the scrubber, if any.
	Fatal error
}

// Err returns nil when every detected violation was repaired, and a
// *ViolationError (matching ErrAuditViolation) listing the unrepaired
// ones otherwise.
func (r Report) Err() error {
	if r.Fatal != nil {
		return r.Fatal
	}
	if r.Unrepaired == 0 {
		return nil
	}
	var un []multistore.AuditViolation
	for _, v := range r.Violations {
		if !v.Repaired {
			un = append(un, v)
		}
	}
	if len(un) == 0 {
		// All unrepaired violations were beyond the retention cap.
		un = append(un, multistore.AuditViolation{
			Invariant: "unknown",
			Detail:    fmt.Sprintf("%d unrepaired violations, details dropped", r.Unrepaired),
		})
	}
	return &ViolationError{Violations: un}
}

// Scrubber owns the background scrub loop over one system. Create with
// New, then Start/Stop, or drive it synchronously with RunOnce.
type Scrubber struct {
	cfg Config
	sys *multistore.System

	mu  sync.Mutex
	rep Report
	// cursor is where the background walk resumes; only the loop goroutine
	// touches it (Stop waits that goroutine out before Start launches another).
	cursor string

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a scrubber over the system. It does nothing until Start or
// RunOnce is called.
func New(sys *multistore.System, cfg Config) *Scrubber {
	return &Scrubber{cfg: cfg.withDefaults(), sys: sys}
}

// Start launches the background scrub loop. Stop tears it down.
func (sc *Scrubber) Start() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stop != nil {
		return
	}
	sc.stop = make(chan struct{})
	sc.wg.Add(1)
	go sc.loop(sc.stop)
}

// Stop halts the background loop and waits for it to exit. Safe to call
// without Start or more than once.
func (sc *Scrubber) Stop() {
	sc.mu.Lock()
	stop := sc.stop
	sc.stop = nil
	sc.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	sc.wg.Wait()
}

func (sc *Scrubber) loop(stop chan struct{}) {
	defer sc.wg.Done()
	t := time.NewTicker(sc.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, next, err := sc.step(sc.cursor, sc.cfg.ChunkViews)
			if err != nil {
				// A torn WAL append means the simulated process is dead;
				// scrubbing on would only compound the damage.
				sc.mu.Lock()
				sc.rep.Fatal = err
				sc.mu.Unlock()
				return
			}
			sc.cursor = next
		}
	}
}

// step runs one scrub chunk of at most chunk views past cursor (<= 0: all
// of them) — and, when the catalog walk wraps, the full-pass
// system-invariant audit — under the drain barrier. It returns what it
// found and where the next chunk starts ("" after a wrap).
func (sc *Scrubber) step(cursor string, chunk int) ([]multistore.AuditViolation, string, error) {
	release := func() {}
	if sc.cfg.Quiesce != nil {
		release = sc.cfg.Quiesce()
	}
	defer release()

	viols, next, err := sc.sys.AuditViews(cursor, chunk, sc.cfg.Repair)
	sc.record(viols, true, next == "")
	if err != nil || next != "" {
		return viols, next, err
	}
	iviols, err := sc.sys.AuditInvariants(sc.cfg.Repair)
	sc.record(iviols, false, false)
	return append(viols, iviols...), "", err
}

func (sc *Scrubber) record(viols []multistore.AuditViolation, chunk, wrapped bool) {
	sc.mu.Lock()
	if chunk {
		sc.rep.Chunks++
	}
	if wrapped {
		sc.rep.Passes++
	}
	for _, v := range viols {
		sc.rep.Detected++
		if v.Repaired {
			sc.rep.Repaired++
		} else {
			sc.rep.Unrepaired++
		}
		if len(sc.rep.Violations) < maxKeptViolations {
			sc.rep.Violations = append(sc.rep.Violations, v)
		} else {
			sc.rep.DroppedViolations++
		}
	}
	sc.mu.Unlock()
}

// RunOnce performs one complete synchronous audit pass — step with an
// unbounded chunk: the full catalog walk plus the system-invariant audit —
// and returns the violations it found. The pass is recorded in the report
// like any background pass. The error return is reserved for a torn WAL
// append while journaling a repair.
func (sc *Scrubber) RunOnce() ([]multistore.AuditViolation, error) {
	viols, _, err := sc.step("", 0)
	return viols, err
}

// Report returns a snapshot of the scrubber's counters and retained
// violations.
func (sc *Scrubber) Report() Report {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	r := sc.rep
	r.Violations = append([]multistore.AuditViolation(nil), sc.rep.Violations...)
	return r
}

// RunOnce audits the system once, synchronously, without constructing a
// long-lived scrubber: one full catalog walk plus the system-invariant
// audit. It returns the violations found; the error is reserved for a
// torn WAL append while journaling a repair.
func RunOnce(sys *multistore.System, repair bool) ([]multistore.AuditViolation, error) {
	return New(sys, Config{Repair: repair}).RunOnce()
}
