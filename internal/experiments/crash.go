package experiments

import (
	"fmt"

	"miso/internal/faults"
	"miso/internal/multistore"
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

// crashCheckpointEvery is the sweep's checkpoint cadence: frequent enough
// that replay tails stay short, sparse enough that replay actually happens.
const crashCheckpointEvery = 4

// maxCrashes bounds a single run; the workload is 32 queries, so dozens of
// deaths means the harness is not making progress.
const maxCrashes = 64

// durable is the builder mutation of a crash-surviving row: the given
// fault profile and seed, and the durability plane enabled.
func durable(p faults.Profile, seed int64) func(*multistore.Config) {
	return func(mc *multistore.Config) {
		armed(p, seed)(mc)
		mc.CheckpointEvery = crashCheckpointEvery
	}
}

// recover replaces the dead system with one rebuilt from its last
// checkpoint and the WAL, re-checks its invariants, and books the
// recovery. Each recovery perturbs the seed so a deterministic injector
// cannot replay the exact crash forever.
func (d *driver) recover() error {
	st := &d.rec
	st.Crashes++
	if st.Crashes > maxCrashes {
		return fmt.Errorf("crash harness exceeded %d deaths", maxCrashes)
	}
	mgr := d.sys.Durability()
	if mgr == nil {
		return fmt.Errorf("crash harness requires CheckpointEvery > 0")
	}
	rcfg := d.mcfg
	rcfg.FaultSeed = d.mcfg.FaultSeed + int64(st.Crashes)
	recovered, rep, err := multistore.Recover(rcfg, d.sys.Catalog(), mgr.Latest(), mgr.WAL())
	if err != nil {
		return fmt.Errorf("recovering from crash %d: %w", st.Crashes, err)
	}
	if err := recovered.CheckInvariants(); err != nil {
		return fmt.Errorf("recovered system after crash %d: %w", st.Crashes, err)
	}
	st.Recoveries++
	st.Replayed += rep.ReplayedRecords
	st.TornBytes += rep.TornBytes
	st.Quarantined += len(rep.Quarantined)
	st.RolledBack += rep.RolledBackReorgs + rep.RolledBackTransfers
	st.Seconds += rep.Seconds
	d.sys = recovered
	return nil
}

// cleanShutdownMatches checkpoints the live system, recovers a twin from
// that checkpoint, and compares canonical state digests: with nothing to
// replay, recovery must reproduce the live state byte-identically.
func cleanShutdownMatches(cfg multistore.Config, sys *multistore.System) (bool, error) {
	ckpt := sys.Checkpoint()
	twin, rep, err := multistore.Recover(cfg, sys.Catalog(), ckpt, sys.Durability().WAL())
	if err != nil {
		return false, err
	}
	if rep.ReplayedRecords != 0 || rep.TornBytes != 0 {
		return false, fmt.Errorf("clean shutdown replayed %d records, tore %d bytes", rep.ReplayedRecords, rep.TornBytes)
	}
	return twin.StateDigest() == sys.StateDigest(), nil
}

// crashChecks are the checks of every crash-surviving row, after
// completed: every death recovered, a recovery replays the journal, and
// the clean-shutdown byte-identity check.
var crashChecks = []check{{"recovered", func(o *Outcome) (bool, string) {
	r := o.Recovery
	return r.Recoveries == r.Crashes, fmt.Sprintf("%d crashes, %d recoveries", r.Crashes, r.Recoveries)
}}, {"replayed", func(o *Outcome) (bool, string) {
	r := o.Recovery
	return r.Crashes == 0 || r.Replayed > 0, fmt.Sprintf("%d WAL records replayed across %d recoveries", r.Replayed, r.Recoveries)
}}, {"clean", func(o *Outcome) (bool, string) {
	return o.Clean, fmt.Sprintf("checkpoint -> recover -> equal state digests: %v", o.Clean)
}}}

// crashCases arms one site per row. View corruption does not kill the
// process by itself, so its row keeps a serve-crash rate alongside —
// recovery is what replays the corrupted durable copies and must
// quarantine them.
var crashCases = []struct {
	site    faults.Site
	rate    float64
	profile faults.Profile
	also    []check
}{
	{site: faults.SiteCrashServe, rate: 0.10},
	{site: faults.SiteCrashTransfer, rate: 0.05},
	{site: faults.SiteCrashReorg, rate: 0.25},
	{site: faults.SiteWALWrite, rate: 0.01, also: []check{{"torn", func(o *Outcome) (bool, string) {
		r := o.Recovery
		return r.Crashes == 0 || r.TornBytes > 0, fmt.Sprintf("%d WAL-write crashes tore %d bytes", r.Crashes, r.TornBytes)
	}}}},
	{site: faults.SiteViewCorrupt, rate: 0.20, profile: faults.Profile{}.With(faults.SiteCrashServe, 0.10), also: []check{{"quarantined", func(o *Outcome) (bool, string) {
		return o.Recovery.Quarantined > 0, fmt.Sprintf("%d corrupt views quarantined", o.Recovery.Quarantined)
	}}}},
}

// crashRows is the per-site crash-recovery sweep on MS-MISO.
func crashRows(Config, Shape) (layout, []row, error) {
	var rows []row
	for _, cse := range crashCases {
		checks := append(append([]check{completed}, crashChecks...), cse.also...)
		rows = append(rows, row{name: cse.site.String(), rate: cse.rate, mutate: durable(cse.profile.With(cse.site, cse.rate), chaosSeed),
			phases: []phase{sequential(workload.SQLs())}, checks: checks})
	}
	lay := layout{
		title: fmt.Sprintf("Crash-recovery sweep: per-site process kills on MS-MISO (seed %d, checkpoint every %d ops)",
			chaosSeed, crashCheckpointEvery),
		header: fmt.Sprintf("%-15s %5s %7s %6s %8s %6s %6s %7s %10s %12s %6s %6s",
			"site", "rate", "crashes", "recov", "replayed", "torn", "quarn", "rolled", "recov(s)", "TTI(s)", "done", "clean"),
		line: func(o *Outcome) string {
			r := o.Recovery
			return fmt.Sprintf("%-15s %4.0f%% %7d %6d %8d %6d %6d %7d %10.1f %12.1f %6d %6v",
				o.Row, 100*o.Rate, r.Crashes, r.Recoveries, r.Replayed, r.TornBytes,
				r.Quarantined, r.RolledBack, r.Seconds, o.System.TTI(), o.System.Queries, o.Clean)
		},
		footer: "every kill recovered from checkpoint+WAL, the dead query resubmitted, and\n" +
			"invariants re-checked; 'clean' is the clean-shutdown byte-identity check\n" +
			"(checkpoint -> recover -> equal state digests)\n",
	}
	return lay, rows, nil
}
