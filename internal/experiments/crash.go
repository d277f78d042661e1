package experiments

import (
	"errors"
	"fmt"
	"io"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

// The crash-chaos sweep (durability extension, not in the paper): the
// 32-query workload replayed with the durability plane on and one crash or
// corruption site armed per row. Every simulated process death is survived
// by multistore.Recover — restore the last checkpoint, replay the WAL,
// roll back in-flight work, quarantine corrupt or stale views — and the
// query that died is resubmitted. Each row finishes with a clean-shutdown
// check: a final checkpoint, a recovery from it, and a StateDigest
// comparison that must find the twin byte-identical to the live system.

// CrashPoint is one armed-site row of the sweep.
type CrashPoint struct {
	// Site is the armed injection site and Rate its per-draw probability.
	Site string
	Rate float64
	// Crashes counts process deaths, Recoveries successful Recover calls
	// (equal when the run completes), Replayed the WAL records applied
	// across them, and TornBytes the unreadable WAL tails discarded.
	Crashes    int
	Recoveries int
	Replayed   int
	TornBytes  int
	// Quarantined counts views removed during recovery (corrupt payloads
	// plus stale generations); RolledBack counts in-flight reorgs and
	// transfers undone.
	Quarantined int
	RolledBack  int
	// RecoverySeconds is the simulated recovery time charged across all
	// recoveries; TTI the final run total; Completed the queries served.
	RecoverySeconds float64
	TTI             float64
	Completed       int
	// CleanMatch reports the clean-shutdown byte-identity check.
	CleanMatch bool
}

// CrashResult is the full sweep.
type CrashResult struct {
	Seed   int64
	Points []CrashPoint
}

// crashCheckpointEvery is the sweep's checkpoint cadence: frequent enough
// that replay tails stay short, sparse enough that replay actually happens.
const crashCheckpointEvery = 4

// maxCrashes bounds a single run; the workload is 32 queries, so dozens of
// deaths means the harness is not making progress.
const maxCrashes = 64

// crashStats aggregates the recovery telemetry of one crash-harness run.
type crashStats struct {
	crashes     int
	recoveries  int
	replayed    int
	torn        int
	quarantined int
	rolledBack  int
	seconds     float64
}

// durable is the builder mutation of a crash-harness run: the given fault
// profile and seed, and the durability plane enabled.
func durable(p faults.Profile, seed int64) func(*multistore.Config) {
	return func(mc *multistore.Config) {
		armed(p, seed)(mc)
		mc.CheckpointEvery = crashCheckpointEvery
	}
}

// runCrashWorkload drives the full workload through the crash harness: on
// faults.ErrCrash the dead system is discarded, Recover rebuilds its state
// from the last checkpoint and the WAL, invariants are re-checked, and the
// killed query is resubmitted. Each recovery perturbs the seed so a
// deterministic injector cannot replay the exact crash forever.
func runCrashWorkload(cfg multistore.Config, cat *storage.Catalog) (*multistore.System, *crashStats, error) {
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, nil, err
	}
	st := &crashStats{}
	sqls := workload.SQLs()
	for i := 0; i < len(sqls); {
		_, err := sys.Run(sqls[i])
		if err == nil {
			i = sys.Metrics().Queries
			continue
		}
		if !errors.Is(err, faults.ErrCrash) {
			return nil, nil, err
		}
		st.crashes++
		if st.crashes > maxCrashes {
			return nil, nil, fmt.Errorf("experiments: crash harness exceeded %d deaths at query %d", maxCrashes, i)
		}
		mgr := sys.Durability()
		if mgr == nil {
			return nil, nil, fmt.Errorf("experiments: crash harness requires CheckpointEvery > 0")
		}
		rcfg := cfg
		rcfg.FaultSeed = cfg.FaultSeed + int64(st.crashes)
		recovered, rep, rerr := multistore.Recover(rcfg, sys.Catalog(), mgr.Latest(), mgr.WAL())
		if rerr != nil {
			return nil, nil, fmt.Errorf("experiments: recovering from crash %d: %w", st.crashes, rerr)
		}
		if err := recovered.CheckInvariants(); err != nil {
			return nil, nil, fmt.Errorf("experiments: recovered system after crash %d: %w", st.crashes, err)
		}
		st.recoveries++
		st.replayed += rep.ReplayedRecords
		st.torn += rep.TornBytes
		st.quarantined += len(rep.Quarantined)
		st.rolledBack += rep.RolledBackReorgs + rep.RolledBackTransfers
		st.seconds += rep.Seconds
		sys = recovered
		i = sys.Metrics().Queries
	}
	return sys, st, nil
}

// crashCases arms one site per row. View corruption does not kill the
// process by itself, so its row keeps a serve-crash rate alongside —
// recovery is what replays the corrupted durable copies and must
// quarantine them.
var crashCases = []struct {
	site  faults.Site
	rate  float64
	extra faults.Site
	xrate float64
}{
	{site: faults.SiteCrashServe, rate: 0.10},
	{site: faults.SiteCrashTransfer, rate: 0.05},
	{site: faults.SiteCrashReorg, rate: 0.25},
	{site: faults.SiteWALWrite, rate: 0.01},
	{site: faults.SiteViewCorrupt, rate: 0.20, extra: faults.SiteCrashServe, xrate: 0.10},
}

// CrashSweep runs the per-site crash-recovery sweep on MS-MISO.
func CrashSweep(cfg Config) (*CrashResult, error) {
	const seed = 42
	res := &CrashResult{Seed: seed}
	for _, cse := range crashCases {
		p := faults.Profile{}.With(cse.site, cse.rate)
		if cse.xrate > 0 {
			p = p.With(cse.extra, cse.xrate)
		}
		mcfg, cat, err := cfg.multistoreConfig(multistore.VariantMSMiso, durable(p, seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: crash sweep %s: %w", cse.site, err)
		}
		sys, st, err := runCrashWorkload(mcfg, cat)
		if err != nil {
			return nil, fmt.Errorf("experiments: crash sweep %s: %w", cse.site, err)
		}
		match, err := cleanShutdownMatches(mcfg, sys)
		if err != nil {
			return nil, fmt.Errorf("experiments: crash sweep %s clean shutdown: %w", cse.site, err)
		}
		m := sys.Metrics()
		res.Points = append(res.Points, CrashPoint{
			Site:            cse.site.String(),
			Rate:            cse.rate,
			Crashes:         st.crashes,
			Recoveries:      st.recoveries,
			Replayed:        st.replayed,
			TornBytes:       st.torn,
			Quarantined:     st.quarantined,
			RolledBack:      st.rolledBack,
			RecoverySeconds: st.seconds,
			TTI:             m.TTI(),
			Completed:       m.Queries,
			CleanMatch:      match,
		})
	}
	return res, nil
}

// cleanShutdownMatches checkpoints the live system, recovers a twin from
// that checkpoint, and compares canonical state digests: with nothing to
// replay, recovery must reproduce the live state byte-identically.
func cleanShutdownMatches(cfg multistore.Config, sys *multistore.System) (bool, error) {
	ckpt := sys.Checkpoint()
	if ckpt == nil {
		return false, fmt.Errorf("durability disabled")
	}
	twin, rep, err := multistore.Recover(cfg, sys.Catalog(), ckpt, sys.Durability().WAL())
	if err != nil {
		return false, err
	}
	if rep.ReplayedRecords != 0 || rep.TornBytes != 0 {
		return false, fmt.Errorf("clean shutdown replayed %d records, tore %d bytes", rep.ReplayedRecords, rep.TornBytes)
	}
	return twin.StateDigest() == sys.StateDigest(), nil
}

// WriteText renders the sweep.
func (r *CrashResult) WriteText(w io.Writer) {
	fprintf(w, "Crash-recovery sweep: per-site process kills on MS-MISO (seed %d, checkpoint every %d ops)\n",
		r.Seed, crashCheckpointEvery)
	fprintf(w, "%-15s %5s %7s %6s %8s %6s %6s %7s %10s %12s %6s %6s\n",
		"site", "rate", "crashes", "recov", "replayed", "torn", "quarn", "rolled", "recov(s)", "TTI(s)", "done", "clean")
	for _, p := range r.Points {
		fprintf(w, "%-15s %4.0f%% %7d %6d %8d %6d %6d %7d %10.1f %12.1f %6d %6v\n",
			p.Site, 100*p.Rate, p.Crashes, p.Recoveries, p.Replayed, p.TornBytes,
			p.Quarantined, p.RolledBack, p.RecoverySeconds, p.TTI, p.Completed, p.CleanMatch)
	}
	fprintf(w, "every kill recovered from checkpoint+WAL, the dead query resubmitted, and\n")
	fprintf(w, "invariants re-checked; 'clean' is the clean-shutdown byte-identity check\n")
	fprintf(w, "(checkpoint -> recover -> equal state digests)\n")
}
