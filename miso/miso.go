// Package miso is the public facade of the MISO multistore system: a big
// data store (HV) and a parallel warehouse (DW) coupled by a multistore
// query optimizer, with the MISO online tuner placing opportunistic
// materialized views across the two stores.
//
// A minimal session:
//
//	sys, err := miso.Open(miso.DefaultConfig(miso.MSMiso), miso.DefaultData())
//	rep, err := sys.Run("SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag")
//	fmt.Println(rep.ResultRows, rep.Total())
//
// The system executes queries for real over synthetic JSON logs; reported
// times are simulated seconds from calibrated cost models (see DESIGN.md).
package miso

import (
	"miso/internal/audit"
	"miso/internal/core"
	"miso/internal/data"
	"miso/internal/durability"
	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
)

// Variant selects a system behavior; see the constants below.
type Variant = multistore.Variant

// The system variants evaluated in the paper.
const (
	// HVOnly executes everything in the big data store.
	HVOnly = multistore.VariantHVOnly
	// DWOnly ETLs the workload-relevant data up-front and serves queries
	// from the warehouse.
	DWOnly = multistore.VariantDWOnly
	// MSBasic splits queries across both stores without any tuning.
	MSBasic = multistore.VariantMSBasic
	// HVOp reuses opportunistic views inside HV only (LRU retention).
	HVOp = multistore.VariantHVOp
	// MSMiso is the full system: multistore execution plus the MISO
	// online tuner.
	MSMiso = multistore.VariantMSMiso
	// MSOff tunes once, offline, with the whole workload known up-front.
	MSOff = multistore.VariantMSOff
	// MSLru retains transferred working sets passively under LRU.
	MSLru = multistore.VariantMSLru
	// MSOra is the MISO tuner driven by the actual future workload.
	MSOra = multistore.VariantMSOra
)

// Config is the full system configuration.
type Config = multistore.Config

// TunerConfig holds the MISO tuner's budgets and ablation knobs
// (Config.Tuner). The tuner fans its what-if cost probes across GOMAXPROCS
// workers; the design is byte-identical at any count.
type TunerConfig = core.Config

// System is a running multistore instance.
type System = multistore.System

// ExecStats accumulates per-operator wall-clock counters for the data
// path. Attach one with System.SetExecStats and render it with
// WriteBreakdown; safe for concurrent use.
type ExecStats = exec.Stats

// ExecOpStat is one operator's row in an ExecStats breakdown.
type ExecOpStat = exec.OpStat

// Metrics is the TTI breakdown.
type Metrics = multistore.Metrics

// QueryReport describes one query's execution.
type QueryReport = multistore.QueryReport

// ReorgRecord summarizes one reorganization phase.
type ReorgRecord = multistore.ReorgRecord

// DataConfig controls the synthetic log generator.
type DataConfig = data.Config

// FaultProfile sets per-site failure rates for the deterministic fault
// injector (Config.Faults). The zero value disables the fault plane.
type FaultProfile = faults.Profile

// RetryPolicy bounds fault recovery: attempts and capped exponential
// backoff, charged to simulated time (Config.Retry).
type RetryPolicy = faults.RetryPolicy

// UniformFaults builds a profile that fails every injection site with the
// same probability. A rate of 0 disables injection entirely.
func UniformFaults(rate float64) FaultProfile { return faults.Uniform(rate) }

// DefaultRetry returns the default recovery policy (6 attempts, 5 s base
// backoff doubling to a 60 s cap).
func DefaultRetry() RetryPolicy { return faults.DefaultRetry() }

// DefaultConfig returns the paper's configuration for a variant. Budgets
// default to the paper's 2x storage multiples with a 10 GB transfer budget
// once Open generates the data (override with Config.SetBudgets).
func DefaultConfig(v Variant) Config { return multistore.DefaultConfig(v) }

// DefaultData returns the paper-scale dataset configuration (~2 TB logical).
func DefaultData() DataConfig { return data.DefaultConfig() }

// SmallData returns a small dataset for quick experiments.
func SmallData() DataConfig { return data.SmallConfig() }

// ServeConfig tunes the concurrent serving frontend: worker pool size,
// admission queue depth, per-query deadline, drain timeout for online
// reorganization and tenant quotas.
type ServeConfig = serve.Config

// QuotaConfig tunes per-tenant fair admission quotas inside ServeConfig;
// the zero value disables them.
type QuotaConfig = serve.QuotaConfig

// TenantStats is one tenant's admission outcome counters
// (Server.TenantStats).
type TenantStats = serve.TenantStats

// ReuseConfig enables the cross-query reuse plane inside Config
// (Config.Reuse): full-query answers and cut subresults kept as
// checksummed result views, which answer repeats of a query over unchanged
// logs, concurrent ones included. The zero value disables the plane and is byte-identical to a
// build without it.
type ReuseConfig = multistore.ReuseConfig

// ReuseStats is a point-in-time snapshot of what the reuse plane holds
// (System.ReuseStats): its result views and their bytes.
type ReuseStats = multistore.ReuseStats

// Server is the concurrent query-serving frontend: a bounded worker pool
// with admission control, per-query deadlines and drain-barrier online
// reorganization. Every admitted query runs as System.RunContext would run
// it; a failing DW is handled inside the system by its HV fallback.
//
//	srv := miso.NewServer(miso.ServeConfig{Workers: 4, QueryTimeout: time.Minute}, sys)
//	defer srv.Close()
//	rep, err := srv.Do(ctx, "SELECT ...")
type Server = serve.Server

// ServeMetrics counts the serving plane's outcomes (completions, sheds,
// timeouts, cancellations, aborts, reorganizations).
type ServeMetrics = serve.Metrics

// ErrShed marks a query rejected at admission because the serving queue
// was full; match it with errors.Is.
var ErrShed = serve.ErrShed

// ErrQuotaShed marks a query shed by its tenant's admission quota; it
// wraps as a shed (errors.Is(err, ErrShed) also holds).
var ErrQuotaShed = serve.ErrQuotaShed

// NewServer starts a serving frontend over a running system.
func NewServer(cfg ServeConfig, sys *System) *Server { return serve.NewServer(cfg, sys) }

// Open generates the dataset and boots a system. If the config's budgets
// are unset, the paper defaults (2x multiples, Bt = 10 GB) are applied.
func Open(cfg Config, dataCfg DataConfig) (*System, error) {
	cat, err := data.Generate(dataCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Tuner.Bh == 0 && cfg.Tuner.Bd == 0 {
		cfg.SetBudgets(cat, 2.0, 10<<30)
	}
	return multistore.New(cfg, cat), nil
}

// OpenWithCatalog boots a system over an existing catalog (advanced use:
// custom logs registered by the caller).
func OpenWithCatalog(cfg Config, cat *storage.Catalog) *System {
	return multistore.New(cfg, cat)
}

// DurabilityManager owns a system's write-ahead log and checkpoint cadence;
// enable it with Config.CheckpointEvery and reach it via System.Durability.
type DurabilityManager = durability.Manager

// WAL is the append-only log of every catalog and design mutation, plus the
// durable copies of admitted view bytes.
type WAL = durability.WAL

// Checkpoint is a full-state snapshot at a WAL position.
type Checkpoint = durability.Checkpoint

// RecoveryReport summarizes one Recover run: records replayed, torn bytes
// discarded, in-flight work rolled back, views quarantined, and the
// simulated recovery time charged.
type RecoveryReport = durability.RecoveryReport

// Crash and corruption sites for FaultProfile.With. UniformFaults leaves
// these at zero because surviving them requires the recovery path: arm them
// explicitly and pair with Config.CheckpointEvery and Recover.
const (
	// SiteCrashReorg kills the process mid-reorganization.
	SiteCrashReorg = faults.SiteCrashReorg
	// SiteCrashTransfer kills the process mid-transfer.
	SiteCrashTransfer = faults.SiteCrashTransfer
	// SiteCrashServe kills the process while serving a query.
	SiteCrashServe = faults.SiteCrashServe
	// SiteWALWrite tears a WAL append partway through, then crashes.
	SiteWALWrite = faults.SiteWALWrite
	// SiteViewCorrupt silently flips stored view bytes, caught later by
	// checksum verification.
	SiteViewCorrupt = faults.SiteViewCorrupt
	// SiteViewRot silently flips bits inside a resident materialized
	// view between queries — the bit-rot fault the audit plane exists to
	// catch and self-heal online (pair with NewScrubber or Audit).
	SiteViewRot = faults.SiteViewRot
)

// Exec-plane governance sites for FaultProfile.With: they exercise the
// resource-governance plane (contained panics, memory-budget aborts,
// bounded cancellation latency) rather than the crash-recovery path.
const (
	// SiteExecPanic panics inside a morsel worker; the engine converts it
	// to an ErrInternal failure of that query alone.
	SiteExecPanic = faults.SiteExecPanic
	// SiteMemPressure injects a memory-budget denial at an exec
	// reservation point, surfacing as ErrMemLimit.
	SiteMemPressure = faults.SiteMemPressure
	// SiteSlowMorsel stalls a morsel for up to 2ms of wall clock,
	// stretching queries so cancellation latency is measurable.
	SiteSlowMorsel = faults.SiteSlowMorsel
)

// ErrMemLimit marks a query aborted over its memory budget
// (Config.MemLimitBytes); match with errors.Is.
var ErrMemLimit = govern.ErrMemLimit

// ErrInternal marks a query failed by a worker panic that was contained to
// this typed error instead of terminating the process.
var ErrInternal = govern.ErrInternal

// ErrCrash marks a simulated process crash (an armed crash site fired, or a
// WAL append tore); match it with errors.Is, then call Recover.
var ErrCrash = faults.ErrCrash

// ErrCorrupt marks a content-checksum mismatch on stored view bytes.
var ErrCorrupt = faults.ErrCorrupt

// ErrAuditViolation is the sentinel wrapped by every integrity violation
// the audit plane reports; match it with errors.Is.
var ErrAuditViolation = audit.ErrAuditViolation

// AuditViolation describes one integrity violation found by an audit
// pass: the invariant family, the view and store involved, and whether
// it was repaired or quarantined.
type AuditViolation = multistore.AuditViolation

// AuditConfig tunes the background integrity scrubber: chunk size, scrub
// interval, repair mode, and the serving plane's drain-barrier hook
// (Server.Quiesce).
type AuditConfig = audit.Config

// AuditReport is a snapshot of a scrubber's counters and retained
// violations.
type AuditReport = audit.Report

// Scrubber is the background integrity scrubber: it incrementally walks
// the view catalogs under live serving, verifies checksums, design
// disjointness, budget conservation, and WAL consistency, and —
// in repair mode — self-heals corrupt views by recomputation through the
// HV fallback path.
//
//	sc := miso.NewScrubber(sys, miso.AuditConfig{Repair: true, Quiesce: srv.Quiesce})
//	sc.Start()
//	defer sc.Stop()
type Scrubber = audit.Scrubber

// NewScrubber builds a scrubber over a running system; call Start for
// background scrubbing or RunOnce for a synchronous full pass.
func NewScrubber(sys *System, cfg AuditConfig) *Scrubber { return audit.New(sys, cfg) }

// Audit runs one synchronous full integrity pass (every view plus the
// system invariants) and returns the violations found. With repair set,
// corrupt views are recomputed or quarantined in place.
func Audit(sys *System, repair bool) ([]AuditViolation, error) {
	return audit.RunOnce(sys, repair)
}

// AuditFamilies lists the invariant families a full audit pass
// verifies, in reporting order.
func AuditFamilies() []string { return audit.Families() }

// Recover rebuilds a system after a crash from its last checkpoint and WAL:
// replay, rollback of uncommitted reorganizations and transfers, checksum
// verification with quarantine, all charged to RECOVERY. If
// the config's budgets are unset, the paper defaults are applied, matching
// Open. The returned system is fully operational:
//
//	sys2, rep, err := miso.Recover(cfg, sys.Catalog(), sys.Durability().Latest(), sys.Durability().WAL())
func Recover(cfg Config, cat *storage.Catalog, ckpt *Checkpoint, wal *WAL) (*System, *RecoveryReport, error) {
	if cfg.Tuner.Bh == 0 && cfg.Tuner.Bd == 0 {
		cfg.SetBudgets(cat, 2.0, 10<<30)
	}
	return multistore.Recover(cfg, cat, ckpt, wal)
}
