package multistore

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
	"miso/internal/workload"
)

// extraTweets returns n tweets of a second generated catalog, to append.
func extraTweets(t testing.TB, dc data.Config, n int) []string {
	t.Helper()
	dc.Seed += 1000
	cat, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	log, err := cat.Log(data.TweetsLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Lines) < n {
		t.Fatalf("the second catalog has %d tweets, want %d", len(log.Lines), n)
	}
	return log.Lines[:n]
}

// rowWiseOver reports whether v's definition is Filter and Project nodes
// over one Extract of the log: the views an append maintains.
func rowWiseOver(v *views.View, log string) bool {
	n := v.Def
	for n.Kind == logical.KindFilter || n.Kind == logical.KindProject {
		n = n.Children[0]
	}
	return n.Kind == logical.KindExtract && n.Children[0].LogName == log
}

// viewsOver returns the names of the views over log in set, split by
// whether an append can maintain them.
func viewsOver(set *views.Set, log string) (rowWise, other []string) {
	for _, v := range set.Members() {
		switch {
		case !slices.Contains(v.BaseLogs(), log):
		case rowWiseOver(v, log):
			rowWise = append(rowWise, v.Name)
		default:
			other = append(other, v.Name)
		}
	}
	return rowWise, other
}

// checkMaintained fails unless every HV view over log is row-wise and equal
// to a fresh execution of its definition over the whole log — its checksum
// under the view's table name, its bytes, the estimator's stat of it — and
// DW holds no view over log.
func checkMaintained(t *testing.T, sys *System, log string) {
	t.Helper()
	if _, other := viewsOver(sys.hv.Views, log); len(other) > 0 {
		t.Errorf("HV still holds %d views over %s that are not row-wise", len(other), log)
	}
	if rw, other := viewsOver(sys.dw.Views, log); len(rw)+len(other) > 0 {
		t.Errorf("DW still holds %d views over %s", len(rw)+len(other), log)
	}
	for _, v := range sys.hv.Views.Members() {
		if !slices.Contains(v.BaseLogs(), log) {
			continue
		}
		fresh, err := exec.Run(v.Def, sys.hv.Env())
		if err != nil {
			t.Fatal(err)
		}
		fresh.Name = v.Table.Name
		if got := storage.ChecksumTable(fresh); got != v.Checksum || !v.Verify() {
			t.Errorf("view %s: stamped checksum %x, fresh %x, verifies %v", v.Name, v.Checksum, got, v.Verify())
		}
		if fresh.RawBytes() != v.Table.RawBytes() || fresh.NumRows() != v.Table.NumRows() {
			t.Errorf("view %s: %d rows / %d bytes, fresh %d / %d", v.Name, v.Table.NumRows(), v.Table.RawBytes(), fresh.NumRows(), fresh.RawBytes())
		}
		want := stats.Stat{Rows: int64(fresh.NumRows()), Bytes: fresh.LogicalBytes()}
		if got := sys.est.Estimate(logical.NewViewScan(v.Name, nil)); got != want {
			t.Errorf("view %s: estimator holds %+v, fresh %+v", v.Name, got, want)
		}
	}
}

// TestAppendToLogInvalidatesDerivedViews: after each of several appends
// every HV view over the log that is Filter/Project over its Extract is
// brought forward — equal to a fresh execution over the whole log — and
// every other view over it, in either store, is gone; views over other logs
// are untouched.
func TestAppendToLogInvalidatesDerivedViews(t *testing.T) {
	for _, v := range []Variant{VariantMSMiso, VariantHVOp} {
		t.Run(string(v), func(t *testing.T) {
			sys := newAuditSystem(t, v, nil)
			runPrefix(t, sys, 32)
			extra := extraTweets(t, data.SmallConfig(), 90)
			sqls := workload.SQLs()
			maintained, dropped := 0, 0
			for i := 0; i < 3; i++ {
				rw, other := viewsOver(sys.hv.Views, data.TweetsLog)
				dwRW, dwOther := viewsOver(sys.dw.Views, data.TweetsLog)
				var untouched []*views.View
				for _, st := range sys.stores() {
					for _, v := range st.views.Members() {
						if !slices.Contains(v.BaseLogs(), data.TweetsLog) {
							untouched = append(untouched, v)
						}
					}
				}
				n, err := sys.AppendToLog(data.TweetsLog, extra[30*i:][:30])
				if err != nil {
					t.Fatal(err)
				}
				if want := len(other) + len(dwRW) + len(dwOther); n != want {
					t.Errorf("append %d dropped %d views, want the %d that are not row-wise HV views", i, n, want)
				}
				if got, _ := viewsOver(sys.hv.Views, data.TweetsLog); !slices.Equal(got, rw) {
					t.Errorf("append %d kept row-wise views %v, want %v", i, got, rw)
				}
				for _, u := range untouched {
					if got, ok := sys.design().HV.Get(u.Name); ok && got != u {
						t.Errorf("append %d replaced view %s over other logs", i, u.Name)
					}
					if got, ok := sys.design().DW.Get(u.Name); ok && got != u {
						t.Errorf("append %d replaced view %s over other logs", i, u.Name)
					}
				}
				maintained += len(rw)
				dropped += n
				checkMaintained(t, sys, data.TweetsLog)
				if err := sys.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(sqls[i]); err != nil {
					t.Fatal(err)
				}
			}
			if maintained == 0 || dropped == 0 {
				t.Errorf("the appends maintained %d views and dropped %d; want both", maintained, dropped)
			}
		})
	}
}

// TestAppendDropsMaintainedViewPastBh: a maintained view that would take HV
// past Bh is dropped instead, and the invariants hold.
func TestAppendDropsMaintainedViewPastBh(t *testing.T) {
	sys := newAuditSystem(t, VariantHVOp, nil)
	runPrefix(t, sys, 12)
	rw, _ := viewsOver(sys.hv.Views, data.TweetsLog)
	if len(rw) < 2 {
		t.Fatalf("warm HV holds %d row-wise views over tweets, want at least 2", len(rw))
	}
	// Room for what HV holds once the views that cannot be maintained are
	// gone, and not one byte more: no maintained view that grows fits.
	room := sys.hv.Views.TotalBytes()
	for _, v := range sys.hv.Views.Members() {
		if slices.Contains(v.BaseLogs(), data.TweetsLog) && !rowWiseOver(v, data.TweetsLog) {
			room -= v.SizeBytes()
		}
	}
	sys.cfg.Tuner.Bh = room
	if _, err := sys.AppendToLog(data.TweetsLog, extraTweets(t, data.SmallConfig(), 200)); err != nil {
		t.Fatal(err)
	}
	after, _ := viewsOver(sys.hv.Views, data.TweetsLog)
	if len(after) >= len(rw) {
		t.Errorf("%d of %d row-wise views kept with no room to grow", len(after), len(rw))
	}
	if got := sys.hv.Views.TotalBytes(); got > room {
		t.Errorf("HV holds %d bytes, Bh %d", got, room)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, sys, data.TweetsLog)
}

// TestRecoverAfterIngest: a system recovered from its last checkpoint and
// WAL after ingest is the live system — its metrics once the recovery's own
// charge is taken out, StateDigest, the design with every view's checksum,
// and the next three answers — whether the checkpoint holds the appended
// state (every operation checkpoints) or the WAL must carry it.
func TestRecoverAfterIngest(t *testing.T) {
	sqls := workload.SQLs()
	extra := extraTweets(t, data.SmallConfig(), 100)
	cases := []struct {
		name string
		op   func(t *testing.T, sys *System)
	}{
		{"append", func(t *testing.T, sys *System) {
			if _, err := sys.AppendToLog(data.TweetsLog, extra); err != nil {
				t.Fatal(err)
			}
		}},
		{"append+query", func(t *testing.T, sys *System) {
			if _, err := sys.AppendToLog(data.TweetsLog, extra); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(sqls[0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		for _, every := range []int{1, 1000} {
			t.Run(fmt.Sprintf("%s/every=%d", c.name, every), func(t *testing.T) {
				live := newAuditSystem(t, VariantMSMiso, func(cfg *Config) { cfg.CheckpointEvery = every })
				runPrefix(t, live, 8)
				live.Checkpoint()
				c.op(t, live)
				dur := live.Durability()
				twin, rep, err := Recover(live.cfg, live.cat, dur.Latest(), dur.WAL())
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Quarantined) != 0 {
					t.Errorf("recovery quarantined %v", rep.Quarantined)
				}
				want := live.metrics
				want.Recovery += rep.Seconds
				if twin.metrics != want {
					t.Fatalf("recovered metrics differ:\n got %+v\nwant %+v", twin.metrics, want)
				}
				// The journal carries neither a query's result data nor the
				// recency stamps it left on the views it read, so the
				// digest is compared where no query was replayed.
				if rep.ReplayedQueries == 0 {
					twin.metrics.Recovery = live.metrics.Recovery
					if got, want := twin.StateDigest(), live.StateDigest(); got != want {
						t.Errorf("recovered digest %016x, live %016x", got, want)
					}
				}
				if got, want := twin.designMap(), live.designMap(); !reflect.DeepEqual(got, want) {
					t.Errorf("recovered design %v, live %v", got, want)
				}
				for _, st := range live.stores() {
					tst := twin.storeFor(st.store)
					for _, v := range st.views.Members() {
						tv, ok := tst.views.Get(v.Name)
						if !ok {
							t.Errorf("%s view %s not recovered", st.tag, v.Name)
							continue
						}
						if tv.Checksum != v.Checksum || storage.ChecksumTable(tv.Table) != storage.ChecksumTable(v.Table) {
							t.Errorf("%s view %s: recovered checksum %x, live %x", st.tag, v.Name, tv.Checksum, v.Checksum)
						}
					}
					if tst.views.Len() != st.views.Len() {
						t.Errorf("%s: recovered %d views, live %d", st.tag, tst.views.Len(), st.views.Len())
					}
				}
				for _, sql := range sqls[8:11] {
					lrep, lerr := live.Run(sql)
					trep, terr := twin.Run(sql)
					if lerr != nil || terr != nil {
						t.Fatalf("live %v, twin %v", lerr, terr)
					}
					if storage.ChecksumData(lrep.Result) != storage.ChecksumData(trep.Result) {
						t.Errorf("%q: recovered answer differs from live", sql)
					}
				}
			})
		}
	}
}

// TestAppendAllocsIndependentOfViewRows: what an append allocates grows
// with the appended lines and the views it maintains, not with the rows
// those views already hold — no re-execution over the whole log, no
// checksum recomputed over old rows. Only the new row index of each view
// (one word triple a row) is proportional to its rows.
func TestAppendAllocsIndependentOfViewRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.ExecWorkers = 1 })
	runPrefix(t, sys, 32)
	extra := extraTweets(t, data.SmallConfig(), data.SmallConfig().NumTweets)
	batch := extra[:10]
	const runs = 5
	measure := func() (allocs, bytes uint64, views, rows int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := sys.AppendToLog(data.TweetsLog, batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		for _, v := range sys.hv.Views.Members() {
			if slices.Contains(v.BaseLogs(), data.TweetsLog) {
				views++
				rows += v.Table.NumRows()
			}
		}
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs, views, rows
	}
	allocs, bytes, views, rows := measure()
	if views == 0 {
		t.Fatal("no view over tweets to maintain")
	}
	// Grow the views about tenfold: the log's tweets eight times over.
	var grow []string
	for i := 0; i < 8; i++ {
		grow = append(grow, extra...)
	}
	if _, err := sys.AppendToLog(data.TweetsLog, grow); err != nil {
		t.Fatal(err)
	}
	allocs2, bytes2, views2, rows2 := measure()
	t.Logf("a 10-line append: %d allocations, %d bytes over %d views of %d rows; %d, %d over %d views of %d rows",
		allocs, bytes, views, rows, allocs2, bytes2, views2, rows2)
	if views2 != views || rows2 < 5*rows {
		t.Fatalf("the large append left %d views of %d rows, was %d of %d", views2, rows2, views, rows)
	}
	index := uint64(unsafe.Sizeof(storage.Row(nil))) * uint64(rows2-rows)
	if allocs2 > allocs+allocs/10 || bytes2 > bytes+bytes/10+index {
		t.Errorf("a 10-line append allocates %d times, %d bytes over views of %d rows; %d, %d over %d",
			allocs2, bytes2, rows2, allocs, bytes, rows)
	}
}

// BenchmarkAppendToLog appends one 250-line batch of tweets to a warm
// MS-MISO system at benchmark scale, maintaining the views over the log.
func BenchmarkAppendToLog(b *testing.B) {
	dc := data.DefaultConfig()
	cat, err := data.Generate(dc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := New(cfg, cat)
	for _, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			b.Fatal(err)
		}
	}
	extra := extraTweets(b, dc, 250*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AppendToLog(data.TweetsLog, extra[250*(i%8):][:250]); err != nil {
			b.Fatal(err)
		}
	}
}
