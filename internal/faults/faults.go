// Package faults is the deterministic fault-injection plane of the
// multistore system. A seeded Injector draws failures from a per-site
// Profile at every point where a real deployment can break — HV stage
// execution, HDFS materialization, each phase of the dump→network→load
// transfer pipeline, DW bulk loads and queries, and reorganization view
// movements — and the stores' recovery machinery (retry with capped
// exponential backoff, resume from the last materialized boundary, HV
// fallback, reorg rollback) charges every wasted second to simulated time.
//
// Determinism guarantee: for a fixed (Profile, seed) pair, the sequence of
// injected failures is a pure function of the sequence of Check calls, so a
// chaos run is exactly reproducible. A zero-rate site never consumes
// randomness, which keeps an all-zero profile a strict no-op: the system
// with faults disabled is byte-identical to one with no injector at all.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Site identifies one injection point in the system.
type Site int

// The injection sites, in pipeline order.
const (
	// SiteHVStage is the execution of one HV (MapReduce-style) job.
	SiteHVStage Site = iota
	// SiteHDFSWrite is the materialization of a stage output to HDFS.
	SiteHDFSWrite
	// SiteTransferDump is the dump phase of a working-set transfer.
	SiteTransferDump
	// SiteTransferNet is the network phase of a transfer.
	SiteTransferNet
	// SiteTransferLoad is the DW temp-space bulk load of a working set.
	SiteTransferLoad
	// SiteDWLoad is the DW permanent-space bulk load (reorg moves, ETL).
	SiteDWLoad
	// SiteDWQuery is a query execution inside DW.
	SiteDWQuery
	// SiteReorgMove is the catalog commit of a reorganization view move.
	SiteReorgMove
	// SiteCrashReorg kills the process mid-reorganization, after at least
	// one view move has been applied but before the design swap commits.
	SiteCrashReorg
	// SiteCrashTransfer kills the process mid-transfer, after the transfer
	// has been journaled as begun but before the temp load commits.
	SiteCrashTransfer
	// SiteCrashServe kills the process while serving a query, after the
	// plan is built but before any store executes it.
	SiteCrashServe
	// SiteWALWrite tears a write-ahead-log append: only a seeded prefix of
	// the record's frame reaches the log, as if the process died mid-write.
	SiteWALWrite
	// SiteViewCorrupt flips bytes in a durably stored view or transferred
	// working set, detected later by a content-checksum mismatch.
	SiteViewCorrupt
	// SiteExecPanic panics a morsel worker goroutine mid-operator. The
	// governance plane contains it: the query fails with a typed
	// govern.ErrInternal while the process and other queries survive.
	SiteExecPanic
	// SiteMemPressure fails a memory reservation in the exec engine as if
	// the query's ledger were exhausted, aborting it with govern.ErrMemLimit.
	SiteMemPressure
	// SiteSlowMorsel stalls one morsel's processing by a small bounded
	// wall-clock sleep (frac-scaled), creating straggler workers that
	// exercise cancellation latency under load.
	SiteSlowMorsel
	// SiteViewRot silently flips a value inside a resident materialized
	// view's table without updating its catalog checksum — bit rot that no
	// query path notices until the integrity scrubber (or a recovery pass)
	// re-verifies content checksums.
	SiteViewRot

	numSites
)

var siteNames = [numSites]string{
	"hv-stage", "hdfs-write", "transfer-dump", "transfer-net",
	"transfer-load", "dw-load", "dw-query", "reorg-move",
	"crash-reorg", "crash-transfer", "crash-serve", "wal-write",
	"view-corrupt", "exec-panic", "mem-pressure", "slow-morsel",
	"view-rot",
}

func (s Site) String() string {
	if s < 0 || s >= numSites {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// Profile holds the per-site failure probabilities (0 disables a site).
type Profile struct {
	HVStage       float64
	HDFSWrite     float64
	TransferDump  float64
	TransferNet   float64
	TransferLoad  float64
	DWLoad        float64
	DWQuery       float64
	ReorgMove     float64
	CrashReorg    float64
	CrashTransfer float64
	CrashServe    float64
	WALWrite      float64
	ViewCorrupt   float64
	ExecPanic     float64
	MemPressure   float64
	SlowMorsel    float64
	ViewRot       float64
}

// Uniform returns a profile with the same rate at every operational site.
// Crash, WAL-tear, and corruption sites stay zero: they terminate or poison
// the process rather than one operation, so they are only meaningful under
// a harness that recovers (see Profile.With and the crash sweep). The
// exec-plane governance sites (exec-panic, mem-pressure, slow-morsel) also
// stay zero: they fire inside concurrent morsel workers, so which query
// absorbs a draw depends on goroutine scheduling — arm them explicitly
// when exercising the governance plane (see the governance sweep).
func Uniform(rate float64) Profile {
	return Profile{
		HVStage: rate, HDFSWrite: rate,
		TransferDump: rate, TransferNet: rate, TransferLoad: rate,
		DWLoad: rate, DWQuery: rate, ReorgMove: rate,
	}
}

// With returns a copy of the profile with the given site's rate replaced.
func (p Profile) With(s Site, rate float64) Profile {
	switch s {
	case SiteHVStage:
		p.HVStage = rate
	case SiteHDFSWrite:
		p.HDFSWrite = rate
	case SiteTransferDump:
		p.TransferDump = rate
	case SiteTransferNet:
		p.TransferNet = rate
	case SiteTransferLoad:
		p.TransferLoad = rate
	case SiteDWLoad:
		p.DWLoad = rate
	case SiteDWQuery:
		p.DWQuery = rate
	case SiteReorgMove:
		p.ReorgMove = rate
	case SiteCrashReorg:
		p.CrashReorg = rate
	case SiteCrashTransfer:
		p.CrashTransfer = rate
	case SiteCrashServe:
		p.CrashServe = rate
	case SiteWALWrite:
		p.WALWrite = rate
	case SiteViewCorrupt:
		p.ViewCorrupt = rate
	case SiteExecPanic:
		p.ExecPanic = rate
	case SiteMemPressure:
		p.MemPressure = rate
	case SiteSlowMorsel:
		p.SlowMorsel = rate
	case SiteViewRot:
		p.ViewRot = rate
	}
	return p
}

// Rate returns the failure probability at the given site.
func (p Profile) Rate(s Site) float64 {
	switch s {
	case SiteHVStage:
		return p.HVStage
	case SiteHDFSWrite:
		return p.HDFSWrite
	case SiteTransferDump:
		return p.TransferDump
	case SiteTransferNet:
		return p.TransferNet
	case SiteTransferLoad:
		return p.TransferLoad
	case SiteDWLoad:
		return p.DWLoad
	case SiteDWQuery:
		return p.DWQuery
	case SiteReorgMove:
		return p.ReorgMove
	case SiteCrashReorg:
		return p.CrashReorg
	case SiteCrashTransfer:
		return p.CrashTransfer
	case SiteCrashServe:
		return p.CrashServe
	case SiteWALWrite:
		return p.WALWrite
	case SiteViewCorrupt:
		return p.ViewCorrupt
	case SiteExecPanic:
		return p.ExecPanic
	case SiteMemPressure:
		return p.MemPressure
	case SiteSlowMorsel:
		return p.SlowMorsel
	case SiteViewRot:
		return p.ViewRot
	default:
		return 0
	}
}

// ExecOnly returns a profile carrying only the exec-plane governance
// sites, for the separate injector the exec engine draws from. Keeping
// exec draws off the main injector preserves the main sequence's
// determinism: concurrent morsel workers never perturb the globally
// ordered draws of the serialized stage/transfer/crash sites.
func (p Profile) ExecOnly() Profile {
	return Profile{ExecPanic: p.ExecPanic, MemPressure: p.MemPressure, SlowMorsel: p.SlowMorsel}
}

// Zero reports whether every site's rate is zero (injection disabled).
func (p Profile) Zero() bool { return p == Profile{} }

// Fault is the typed error produced by an injected failure. Callers
// unwrap it with errors.As to learn which site failed and on which
// attempt.
type Fault struct {
	// Site is where the failure was injected.
	Site Site
	// Op describes the operation that failed (for the error message).
	Op string
	// Attempt is the 1-based attempt number that failed.
	Attempt int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s failure during %s (attempt %d)", f.Site, f.Op, f.Attempt)
}

// ErrExhausted marks an operation whose retries ran out; it always wraps
// the final Fault, so both errors.Is(err, ErrExhausted) and
// errors.As(err, &fault) work on the same error chain.
var ErrExhausted = errors.New("faults: retries exhausted")

// Exhausted wraps the last fault of an operation that ran out of attempts.
func Exhausted(last *Fault) error {
	return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, last.Attempt, last)
}

// ErrCrash marks a simulated process kill: the operation did not merely
// fail, the whole system died mid-flight. Callers surface it to the crash
// harness, which tears the WAL tail and rebuilds the system with Recover.
var ErrCrash = errors.New("faults: simulated process crash")

// Crash wraps ErrCrash with the site at which the process died. Both
// errors.Is(err, ErrCrash) and errors.As(err, &fault) work on the chain.
func Crash(site Site) error {
	return fmt.Errorf("%w at %s: %w", ErrCrash, site, &Fault{Site: site, Op: "crash", Attempt: 1})
}

// ErrCorrupt marks a content-checksum mismatch on a stored view or
// transferred working set: the bytes arrived, but damaged, so it is
// distinct from ErrExhausted.
var ErrCorrupt = errors.New("faults: content checksum mismatch")

// Corrupt wraps ErrCorrupt with the name of the damaged object.
func Corrupt(name string) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, name)
}

// RetryPolicy is the shared recovery policy: bounded attempts with capped
// exponential backoff. Backoff waits are charged to simulated time, never
// to the wall clock.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first.
	MaxAttempts int
	// BaseBackoff is the simulated seconds waited after the first failure.
	BaseBackoff float64
	// BackoffFactor multiplies the wait after each further failure.
	BackoffFactor float64
	// MaxBackoff caps a single wait.
	MaxBackoff float64
}

// DefaultRetry returns the system-wide recovery policy: up to 6 attempts,
// backoff 5s, 10s, 20s, 40s, 60s (capped).
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 6, BaseBackoff: 5, BackoffFactor: 2, MaxBackoff: 60}
}

// OrDefault returns the policy itself, or DefaultRetry for the zero value,
// so a zero-valued config field means "default policy" rather than "no
// retries at all".
func (r RetryPolicy) OrDefault() RetryPolicy {
	if r.MaxAttempts <= 0 {
		return DefaultRetry()
	}
	return r
}

// Backoff returns the simulated wait after the given 1-based failed
// attempt.
func (r RetryPolicy) Backoff(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	b := r.BaseBackoff
	for i := 1; i < attempt; i++ {
		b *= r.BackoffFactor
		if b >= r.MaxBackoff {
			return r.MaxBackoff
		}
	}
	if b > r.MaxBackoff {
		return r.MaxBackoff
	}
	return b
}

// GiveUp is the one give-up rule. After an injected failure at site was
// drawn and charged as the given 1-based attempt of op, it decides whether
// another attempt may be paid, in a fixed order: the per-phase policy
// (an error wrapping ErrExhausted), then the caller's deadline (an error
// wrapping ctx.Err(): no retry fits inside an expired deadline). Nil means
// try again.
func (r RetryPolicy) GiveUp(ctx context.Context, site Site, op string, attempt int) error {
	switch {
	case attempt >= r.MaxAttempts:
		return Exhausted(&Fault{Site: site, Op: op, Attempt: attempt})
	case ctx.Err() != nil:
		return fmt.Errorf("abandoned before retry: %w", ctx.Err())
	}
	return nil
}

// Replay is the one transactional recovery loop: it draws site's outcome
// for an operation that takes sec simulated seconds, and for every injected
// failure counts a retry, charges the fraction of the operation completed
// before the failure plus the backoff wait to *recovery, and asks GiveUp
// whether to go on. It returns nil once a draw succeeds. The charges are
// added to the caller's accumulators one failure at a time, so a caller's
// running sums see the same additions in the same order wherever the
// replay is called from.
func (r RetryPolicy) Replay(ctx context.Context, inj *Injector, site Site, op string, sec float64, retries *int, recovery *float64) error {
	for attempt := 1; ; attempt++ {
		failed, frac := inj.Check(site)
		if !failed {
			return nil
		}
		*retries++
		*recovery += frac*sec + r.Backoff(attempt)
		if err := r.GiveUp(ctx, site, op, attempt); err != nil {
			return err
		}
	}
}

// Injector draws failures from a profile with a seeded generator. A nil
// Injector is valid and never fails anything, so call sites need no
// guards. Injector is safe for concurrent use: Check serializes draws
// behind an internal mutex, so the draw sequence stays a pure function of
// the (globally ordered) sequence of Check calls. The multistore system
// additionally serializes query execution, which keeps that order — and
// therefore chaos runs — deterministic for a fixed submission order.
type Injector struct {
	mu      sync.Mutex
	profile Profile
	rng     *rand.Rand
	counts  [numSites]int
}

// NewInjector creates an injector for the profile. It returns nil for an
// all-zero profile: the caller's nil-injector fast paths then keep the
// fault plane strictly additive.
func NewInjector(p Profile, seed int64) *Injector {
	if p.Zero() {
		return nil
	}
	return &Injector{profile: p, rng: rand.New(rand.NewSource(seed))}
}

// Enabled reports whether the injector can inject anything.
func (in *Injector) Enabled() bool { return in != nil }

// Check draws one outcome for the site. When it fails, frac is the
// fraction of the operation completed before the failure hit (uniform in
// [0,1)), which callers use to charge partially wasted work. Zero-rate
// sites consume no randomness and never fail.
func (in *Injector) Check(site Site) (failed bool, frac float64) {
	if in == nil {
		return false, 1
	}
	rate := in.profile.Rate(site)
	if rate <= 0 {
		return false, 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= rate {
		return false, 1
	}
	in.counts[site]++
	return true, in.rng.Float64()
}

// Injected returns how many failures have been injected at the site.
func (in *Injector) Injected(site Site) int {
	if in == nil || site < 0 || site >= numSites {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[site]
}

// TotalInjected returns the total number of injected failures.
func (in *Injector) TotalInjected() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, c := range in.counts {
		n += c
	}
	return n
}
