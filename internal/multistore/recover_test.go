package multistore_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// newDurableSystem boots a small MS-MISO system with the durability plane on.
func newDurableSystem(t *testing.T, p faults.Profile, seed int64, every int) (*multistore.System, multistore.Config) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = p
	cfg.FaultSeed = seed
	cfg.CheckpointEvery = every
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys, cfg
}

// designNames flattens both stores' view names, sorted.
func designNames(sys *multistore.System) []string {
	var names []string
	for _, v := range sys.HV().Views.All() {
		names = append(names, "H:"+v.Name)
	}
	for _, v := range sys.DW().Views.All() {
		names = append(names, "D:"+v.Name)
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recoverFrom kills sys and rebuilds it from its last checkpoint and WAL,
// perturbing the seed per attempt like the crash harness does.
func recoverFrom(t *testing.T, cfg multistore.Config, sys *multistore.System, attempt int) (*multistore.System, *struct {
	replayed, quarantined, rolledBackReorgs, rolledBackTransfers int
	torn                                                         int
}) {
	t.Helper()
	mgr := sys.Durability()
	if mgr == nil {
		t.Fatal("durability disabled")
	}
	rcfg := cfg
	rcfg.FaultSeed = cfg.FaultSeed + int64(attempt)
	rec, rep, err := multistore.Recover(rcfg, sys.Catalog(), mgr.Latest(), mgr.WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("recovered system violates invariants: %v", err)
	}
	out := &struct {
		replayed, quarantined, rolledBackReorgs, rolledBackTransfers int
		torn                                                         int
	}{rep.ReplayedRecords, len(rep.Quarantined), rep.RolledBackReorgs, rep.RolledBackTransfers, rep.TornBytes}
	return rec, out
}

// runToCompletion drives the workload prefix through the kill/recover loop
// and returns the final system plus the crash count.
func runToCompletion(t *testing.T, cfg multistore.Config, sys *multistore.System, queries []string) (*multistore.System, int) {
	t.Helper()
	crashes := 0
	for i := 0; i < len(queries); {
		_, err := sys.Run(queries[i])
		if err == nil {
			i = len(sys.Reports())
			continue
		}
		if !errors.Is(err, faults.ErrCrash) {
			t.Fatalf("query %d failed with a non-crash error: %v", i, err)
		}
		crashes++
		if crashes > 64 {
			t.Fatalf("crash loop: %d deaths over %d queries", crashes, len(queries))
		}
		sys, _ = recoverFrom(t, cfg, sys, crashes)
		// Committed work survives: the recovered system never loses a
		// completed query.
		if got := len(sys.Reports()); got > i {
			t.Fatalf("recovery invented %d completed queries, had %d", got, i)
		}
		i = len(sys.Reports())
	}
	return sys, crashes
}

// TestRecoverPerCrashSite is the per-site crash regression: each armed site
// must kill the process at least once, and the kill/recover/resubmit loop
// must complete the workload prefix with invariants intact throughout.
func TestRecoverPerCrashSite(t *testing.T) {
	cases := []struct {
		name string
		p    faults.Profile
		seed int64
	}{
		{"crash-serve", faults.Profile{}.With(faults.SiteCrashServe, 0.25), 3},
		{"crash-transfer", faults.Profile{}.With(faults.SiteCrashTransfer, 0.20), 5},
		// 0.5, not 1.0: an always-crashing reorg can never commit, so the
		// loop would re-crash at the same decision point forever.
		{"crash-reorg", faults.Profile{}.With(faults.SiteCrashReorg, 0.5), 7},
		{"wal-write", faults.Profile{}.With(faults.SiteWALWrite, 0.02), 11},
	}
	sqls := workload.SQLs()[:12]
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys, cfg := newDurableSystem(t, tc.p, tc.seed, 3)
			sys, crashes := runToCompletion(t, cfg, sys, sqls)
			if crashes == 0 {
				t.Fatalf("site never fired; the regression tested nothing")
			}
			if got := len(sys.Reports()); got != len(sqls) {
				t.Fatalf("completed %d of %d queries", got, len(sqls))
			}
			for i, rep := range sys.Reports() {
				if rep.Seq != i {
					t.Fatalf("report %d has seq %d: replay reordered the workload", i, rep.Seq)
				}
			}
			// Every surviving view must pass its content checksum.
			for _, v := range append(sys.HV().Views.All(), sys.DW().Views.All()...) {
				if !v.Verify() {
					t.Errorf("view %s fails verification after recovery", v.Name)
				}
			}
		})
	}
}

// TestRecoverRollsBackUncommittedReorg arms the reorg crash site at 100%:
// the first reorganization dies after its moves but before its commit
// record, and recovery must discard it entirely.
func TestRecoverRollsBackUncommittedReorg(t *testing.T) {
	sys, cfg := newDurableSystem(t, faults.Profile{}.With(faults.SiteCrashReorg, 1.0), 7, 100)
	var crashErr error
	for _, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			crashErr = err
			break
		}
	}
	if crashErr == nil {
		t.Skip("workload never triggered a reorganization at this scale")
	}
	if !errors.Is(crashErr, faults.ErrCrash) {
		t.Fatalf("reorg failed with a non-crash error: %v", crashErr)
	}
	rec, rep := recoverFrom(t, cfg, sys, 1)
	if rep.rolledBackReorgs != 1 {
		t.Errorf("rolled back %d reorgs, want 1", rep.rolledBackReorgs)
	}
	if got := len(rec.ReorgLog()); got != 0 {
		t.Errorf("uncommitted reorganization survived into the recovered log (%d entries)", got)
	}
	if rec.Metrics().Reorgs != 0 {
		t.Errorf("uncommitted reorganization counted in metrics")
	}
}

// TestRecoverReplaysReorgRetries: a reorganization replayed from the journal
// must book what the live phase booked, the injected failures its moves
// survived included — the commit record carries them.
func TestRecoverReplaysReorgRetries(t *testing.T) {
	p := faults.Profile{}.With(faults.SiteDWLoad, 0.3).With(faults.SiteReorgMove, 0.3)
	sys, cfg := newDurableSystem(t, p, 7, 100)
	boot := sys.Durability().Latest()
	for i, sql := range workload.SQLs()[:12] {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	live, failed := sys.Metrics(), 0
	for _, r := range sys.ReorgLog() {
		failed += r.FailedMoves
	}
	if live.Retries == 0 || failed == 0 {
		t.Fatalf("%d retries, %d failed moves: the run exercises nothing", live.Retries, failed)
	}
	rec, _, err := multistore.Recover(cfg, sys.Catalog(), boot, sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := rec.Metrics(); got.Retries != live.Retries || got.Tune != live.Tune {
		t.Errorf("recovered retries %d, tune %v; live %d, %v", got.Retries, got.Tune, live.Retries, live.Tune)
	}
	if got, want := rec.ReorgLog(), sys.ReorgLog(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered reorg log %+v, live %+v", got, want)
	}
}

// TestRecoverQuarantinesCorruptPayloads corrupts every durable view copy:
// replayed admits must be quarantined, never installed, and the recovered
// system must still serve queries.
func TestRecoverQuarantinesCorruptPayloads(t *testing.T) {
	// Boot checkpoint only (cadence 100): recovery replays every admit from
	// the WAL's corrupted payload space.
	sys, cfg := newDurableSystem(t, faults.Profile{}.With(faults.SiteViewCorrupt, 1.0), 9, 100)
	sqls := workload.SQLs()[:6]
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if sys.HV().Views.Len()+sys.DW().Views.Len() == 0 {
		t.Fatal("workload prefix admitted no views; nothing to corrupt")
	}
	rec, rep := recoverFrom(t, cfg, sys, 1)
	if rep.quarantined == 0 {
		t.Fatal("no corrupted payloads quarantined")
	}
	// Only views with nothing to flip (empty materializations) may survive;
	// every survivor must still pass verification.
	for _, v := range append(rec.HV().Views.All(), rec.DW().Views.All()...) {
		if !v.Verify() {
			t.Errorf("corrupt view %s rejoined the design", v.Name)
		}
		if v.Table != nil && v.Table.NumRows() > 0 {
			t.Errorf("non-empty view %s escaped corruption", v.Name)
		}
	}
	if rec.Metrics().Quarantined != rep.quarantined {
		t.Errorf("quarantine count not charged to metrics: %d vs %d",
			rec.Metrics().Quarantined, rep.quarantined)
	}
	if rec.Metrics().Recovery <= sys.Metrics().Recovery {
		t.Error("recovery work not charged to RECOVERY TTI")
	}
	if _, err := rec.Run(sqls[len(sqls)-1]); err != nil {
		t.Fatalf("recovered system cannot serve: %v", err)
	}
}

// TestRecoverTornTail tears arbitrary suffixes off a live WAL: recovery
// must come back clean from every cut, never panicking and never violating
// invariants.
func TestRecoverTornTail(t *testing.T) {
	sys, cfg := newDurableSystem(t, faults.Profile{}, 1, 2)
	sqls := workload.SQLs()[:8]
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	wal := sys.Durability().WAL()
	total := wal.LSN()
	for _, tear := range []int{1, 7, 64, 333, total / 2, total} {
		wal.Tear(tear)
		rec, _ := recoverFrom(t, cfg, sys, tear)
		if got := len(rec.Reports()); got > len(sqls) {
			t.Fatalf("tear %d: recovery invented queries (%d)", tear, got)
		}
	}
}

// TestCleanShutdownByteIdentity checkpoints a live system and recovers a
// twin from it: with nothing to replay, every digest-covered field must be
// byte-identical.
func TestCleanShutdownByteIdentity(t *testing.T) {
	sys, cfg := newDurableSystem(t, faults.Profile{}, 1, 4)
	for i, sql := range workload.SQLs()[:8] {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	ckpt := sys.Checkpoint()
	twin, rep, err := multistore.Recover(cfg, sys.Catalog(), ckpt, sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.ReplayedRecords != 0 || rep.TornBytes != 0 {
		t.Fatalf("clean shutdown replayed %d records, tore %d bytes", rep.ReplayedRecords, rep.TornBytes)
	}
	if rep.Seconds != 0 {
		t.Errorf("clean-shutdown recovery charged %.3fs", rep.Seconds)
	}
	if got, want := twin.StateDigest(), sys.StateDigest(); got != want {
		t.Fatalf("clean-shutdown digest %016x != live %016x", got, want)
	}
	if !sameNames(designNames(twin), designNames(sys)) {
		t.Error("clean-shutdown design differs from live design")
	}
	// The twin is live: it can keep serving where the original stopped.
	if _, err := twin.Run(workload.SQLs()[8]); err != nil {
		t.Fatalf("recovered twin cannot continue the workload: %v", err)
	}
}

// TestDurabilityZeroOverhead runs the same workload prefix with the
// durability plane on and off: journaling must charge no simulated time and
// perturb no metric.
func TestDurabilityZeroOverhead(t *testing.T) {
	run := func(every int) multistore.Metrics {
		cat, err := data.Generate(data.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
		cfg.SetBudgets(cat, 2.0, 10<<30)
		cfg.CheckpointEvery = every
		sys := multistore.New(cfg, cat)
		for i, sql := range workload.SQLs()[:10] {
			if _, err := sys.Run(sql); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		return sys.Metrics()
	}
	if on, off := run(4), run(0); on != off {
		t.Fatalf("durability perturbed the run:\n on  %+v\n off %+v", on, off)
	}
}

// TestServeResumesOnRecoveredSystem recovers a crashed system and puts the
// concurrent serving frontend on top of it.
func TestServeResumesOnRecoveredSystem(t *testing.T) {
	sys, cfg := newDurableSystem(t, faults.Profile{}.With(faults.SiteCrashServe, 0.25), 3, 3)
	var crashed bool
	for _, sql := range workload.SQLs()[:12] {
		if _, err := sys.Run(sql); err != nil {
			if !errors.Is(err, faults.ErrCrash) {
				t.Fatalf("non-crash error: %v", err)
			}
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("crash site never fired")
	}
	rec, _ := recoverFrom(t, cfg, sys, 1)
	srv := serve.NewServer(serve.Config{Workers: 2}, rec)
	defer srv.Close()
	done := len(rec.Reports())
	for _, sql := range workload.SQLs()[done : done+3] {
		rep, err := srv.Do(context.Background(), sql)
		if err != nil && !errors.Is(err, faults.ErrCrash) {
			t.Fatalf("serve on recovered system: %v", err)
		}
		if err == nil && rep.Result == nil {
			t.Fatal("served query returned no result")
		}
		if errors.Is(err, faults.ErrCrash) {
			// The site is still armed; one more recovery keeps serving.
			rec, _ = recoverFrom(t, cfg, rec, 2)
			srv.Close()
			srv = serve.NewServer(serve.Config{Workers: 2}, rec)
		}
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("invariants after serving: %v", err)
	}
}

// TestRecoverPastReportRing runs past the report ring's capacity and kills
// the process twice. After a checkpoint (clean shutdown) the recovered twin
// must stand at the StateDigest of the run that never crashed: the evicted
// count and fold travel in the snapshot. From an older checkpoint, taken
// before the ring filled, the WAL replay itself crosses the capacity, and
// the recovered log must still account for every query: the retained tail
// in order, the rest counted as evicted.
func TestRecoverPastReportRing(t *testing.T) {
	const ring, total = 256, 300
	sys, cfg := newDurableSystem(t, faults.Profile{}, 1, 200)
	sqls := workload.SQLs()
	for i := 0; i < total; i++ {
		if _, err := sys.Run(sqls[i%len(sqls)]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := len(sys.Reports()); got != ring {
		t.Fatalf("live system retains %d reports, want %d", got, ring)
	}
	checkTail := func(name string, s *multistore.System) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reps := s.Reports()
		if s.Metrics().Queries != total || len(reps) != ring {
			t.Fatalf("%s: %d queries counted, %d reports retained; want %d and %d",
				name, s.Metrics().Queries, len(reps), total, ring)
		}
		for i, rep := range reps {
			if want := total - ring + i; rep.Seq != want {
				t.Fatalf("%s: retained report %d has seq %d, want %d", name, i, rep.Seq, want)
			}
		}
	}
	checkTail("live", sys)

	// The checkpoint cadence left one at query 200: replay crosses the ring.
	old := sys.Durability().Latest()
	replayed, rep, err := multistore.Recover(cfg, sys.Catalog(), old, sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover from the old checkpoint: %v", err)
	}
	if rep.ReplayedQueries != total-200 {
		t.Fatalf("replayed %d queries, want %d", rep.ReplayedQueries, total-200)
	}
	checkTail("replayed", replayed)

	// Clean shutdown: checkpoint, die, recover with nothing to replay.
	want := sys.StateDigest()
	twin, rep, err := multistore.Recover(cfg, sys.Catalog(), sys.Checkpoint(), sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown replayed %d records", rep.ReplayedRecords)
	}
	checkTail("twin", twin)
	if got := twin.StateDigest(); got != want {
		t.Fatalf("recovered digest %016x != uncrashed %016x", got, want)
	}
	// The restored ring keeps evicting from its oldest end.
	if _, err := twin.Run(sqls[total%len(sqls)]); err != nil {
		t.Fatal(err)
	}
	if err := twin.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if reps := twin.Reports(); len(reps) != ring || reps[0].Seq != total-ring+1 || reps[ring-1].Seq != total {
		t.Fatalf("after one more query the twin retains %d reports, seq %d..%d", len(reps), reps[0].Seq, reps[len(reps)-1].Seq)
	}
}

// TestRecoverFromBootCheckpointPerVariant recovers every variant from its
// boot checkpoint plus the WAL after eight queries. Everything a query
// report does not carry — DW-ONLY's one-time ETL, MS-OFF's offline design
// and its per-query realization, the future workload both read — must
// come back too: every Metrics field equals the live system's, Recovery
// plus what the recovery itself charged. The twin then answers the next
// four queries, through the next reorganization, as the live system does.
func TestRecoverFromBootCheckpointPerVariant(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sqls := workload.SQLs()
	for _, v := range []multistore.Variant{
		multistore.VariantHVOnly, multistore.VariantDWOnly, multistore.VariantMSBasic,
		multistore.VariantHVOp, multistore.VariantMSMiso, multistore.VariantMSOff,
		multistore.VariantMSLru, multistore.VariantMSOra,
	} {
		t.Run(string(v), func(t *testing.T) {
			cfg := multistore.DefaultConfig(v)
			cfg.SetBudgets(cat, 2.0, 10<<30)
			cfg.CheckpointEvery = 1000 // no checkpoint but the boot-time ones
			live := multistore.New(cfg, cat)
			if err := live.ProvideFutureWorkload(sqls); err != nil {
				t.Fatal(err)
			}
			for i, sql := range sqls[:8] {
				if _, err := live.Run(sql); err != nil {
					t.Fatalf("query %d: %v", i+1, err)
				}
			}
			dur := live.Durability()
			twin, rep, err := multistore.Recover(cfg, cat, dur.Latest(), dur.WAL())
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			want := live.Metrics()
			want.Recovery += rep.Seconds
			if got := twin.Metrics(); got != want {
				t.Fatalf("recovered metrics differ:\n got %+v\nwant %+v", got, want)
			}
			for i, sql := range sqls[8:12] {
				lrep, lerr := live.Run(sql)
				trep, terr := twin.Run(sql)
				if lerr != nil || terr != nil {
					t.Fatalf("query %d: live %v, twin %v", i+9, lerr, terr)
				}
				if lrep.Total() != trep.Total() {
					t.Fatalf("query %d: twin took %vs, live %vs", i+9, trep.Total(), lrep.Total())
				}
			}
		})
	}
}

// TestRecoverReplaysOnlyTheLastAdmitPerView: the WAL keeps one payload per
// view name, the latest admitted content, so a view admitted, brought
// forward or re-admitted after an append, and admitted again must recover
// from its last admit alone, not be checked against a payload that
// superseded its first one and quarantined as corrupt.
func TestRecoverReplaysOnlyTheLastAdmitPerView(t *testing.T) {
	sys, cfg := newDurableSystem(t, faults.Profile{}, 1, 1000)
	q, _ := workload.ByName("A1v1")
	ckpt := sys.Checkpoint()
	if _, err := sys.Run(q.SQL); err != nil {
		t.Fatal(err)
	}
	// Tweets inside A1v1's window, so its tweets view changes.
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"tweet_id":%d,"user_id":%d,"ts":1357300000,"text":"great food","hashtag":"food","lang":"en","retweets":3,"followers":40}`, 3_000_000+i, i)
	}
	if _, err := sys.AppendToLog(data.TweetsLog, lines); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(q.SQL); err != nil {
		t.Fatal(err)
	}
	twin, rep, err := multistore.Recover(cfg, sys.Catalog(), ckpt, sys.Durability().WAL())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptViews != 0 || len(rep.Quarantined) != 0 {
		t.Errorf("recovery found %d corrupt views, quarantined %v", rep.CorruptViews, rep.Quarantined)
	}
	if got, want := twin.Metrics().Quarantined, sys.Metrics().Quarantined; got != want {
		t.Errorf("recovered Quarantined %d, live %d", got, want)
	}
	if !sameNames(designNames(twin), designNames(sys)) {
		t.Errorf("recovered design %v, live %v", designNames(twin), designNames(sys))
	}
}
