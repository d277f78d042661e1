package multistore

// Tests of the query path's two phases: the read phase before System.mu
// allocates nothing on a hit, a write landing between the phases makes the
// commit choose again, and two sessions leave what the same operations
// replayed in commit order leave.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/storage"
	"miso/internal/workload"
)

// allocsAtTwoProcs is the mean allocations of run over runs rounds at
// GOMAXPROCS 2, counted with runtime.ReadMemStats: testing.AllocsPerRun
// pins GOMAXPROCS to 1, where no goroutine a step fans out to is seen.
func allocsAtTwoProcs(runs int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	run() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestReadPhaseHitAllocs guards the read phase of a result-view hit
// (reuse on) and of a plan-cache hit (reuse off) on a warm MS-MISO system,
// for queries 0, 5 and 17, at GOMAXPROCS 2: it must allocate nothing, so
// it fails if the read phase starts a goroutine or clones a view set on a
// hit. The whole run is held to a ceiling at GOMAXPROCS 2 as well: 5
// allocations for every result-view hit, and 504, 423 and 305 for the
// plan-cache hits (TestPlanCacheHitAllocs' counts at GOMAXPROCS 1); the
// ceilings sit a quarter above.
func TestReadPhaseHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sqls := workload.SQLs()
	for _, c := range []struct {
		name     string
		reuse    bool
		ceilings [3]float64 // whole runs of queries 0, 5 and 17
	}{
		{"result-view hit", true, [3]float64{8, 8, 8}},
		{"plan-cache hit", false, [3]float64{640, 550, 400}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := newPlanSystem(t, VariantMSMiso, func(cfg *Config) { cfg.Reuse.Enabled = c.reuse })
			for i, sql := range sqls {
				if _, err := sys.Run(sql); err != nil {
					t.Fatalf("warm-up query %d: %v", i, err)
				}
			}
			for i, query := range []int{0, 5, 17} {
				plan, err := sys.builder.BuildSQL(sqls[query])
				if err != nil {
					t.Fatal(err)
				}
				hit := func() bool {
					a := sys.readAhead(plan)
					if c.reuse {
						return a.verified
					}
					return a.mp != nil && !a.fresh
				}
				// The first repeats may record what the query's last run
				// under another design did not, which moves the estimator.
				for try := 0; !hit(); try++ {
					if _, err := sys.Run(sqls[query]); err != nil {
						t.Fatalf("query %d: %v", query, err)
					}
					if try == 3 {
						t.Fatalf("query %d: no %s in four repeats", query, c.name)
					}
				}
				read := allocsAtTwoProcs(200, func() { sys.readAhead(plan) })
				whole := allocsAtTwoProcs(20, func() {
					if _, err := sys.Run(sqls[query]); err != nil {
						t.Fatalf("query %d: %v", query, err)
					}
				})
				if !hit() {
					t.Fatalf("query %d: the runs left no %s", query, c.name)
				}
				t.Logf("query %d: the read phase of a %s allocates %.2f times, the whole run %.1f", query, c.name, read, whole)
				if read != 0 {
					t.Errorf("query %d: the read phase of a %s allocates %.2f times, want none", query, c.name, read)
				}
				if whole > c.ceilings[i] {
					t.Errorf("query %d: a run with a %s allocates %.1f times at GOMAXPROCS 2, ceiling %.0f", query, c.name, whole, c.ceilings[i])
				}
			}
		})
	}
}

// TestCommitReplansAfterAWriteInTheGap lands a reorganization or a log
// append between a query's read phase and its commit, on a warm MS-MISO
// system whose kept plans were dropped, so the read phase chooses the plan
// under the design and logs before the write. The commit must see the tuple
// moved and choose again rather than take that plan (planHit sees none),
// and the system must end where a twin that made the write before running
// the query ends. The query is the first whose plan the write changes on
// the twin, so a stale plan would also show in simulated time; no plan
// changes across the append, and there only the path is checked.
func TestCommitReplansAfterAWriteInTheGap(t *testing.T) {
	sqls := workload.SQLs()
	for _, w := range []struct {
		name  string
		write func(s *System) error
	}{
		{"reorganize", (*System).Reorganize},
		{"append", func(s *System) error {
			tweets, _ := s.Catalog().Log(data.TweetsLog)
			_, err := s.AppendToLog(data.TweetsLog, slices.Clone(tweets.Lines[:4]))
			return err
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			sys := newPlanSystem(t, VariantMSMiso, nil)
			twin := newPlanSystem(t, VariantMSMiso, nil)
			for i, sql := range sqls {
				for _, s := range []*System{sys, twin} {
					if _, err := s.Run(sql); err != nil {
						t.Fatalf("warm-up query %d: %v", i, err)
					}
				}
			}
			explain := func(s *System) []string {
				out := make([]string, len(sqls))
				for i, sql := range sqls {
					var err error
					if out[i], err = s.Explain(sql); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			before := explain(twin)
			if err := w.write(twin); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			after := explain(twin)
			query := 0
			for i := range sqls {
				if before[i] != after[i] {
					query = i
					break
				}
			}
			if w.name == "reorganize" && before[query] == after[query] {
				t.Fatal("the reorganization changed no query's plan")
			}
			sql := sqls[query]

			sys.plans.mu.Lock()
			clear(sys.plans.plans)
			sys.plans.mu.Unlock()
			var seen atomic.Int64
			planHit = func(*System, *logical.Node, optimizer.Design, *optimizer.MultiPlan, bool) { seen.Add(1) }
			t.Cleanup(func() { planHit = nil })
			var chosen *optimizer.MultiPlan
			betweenPhases = func(s *System, a *ahead) {
				betweenPhases = nil
				if a.fresh {
					chosen = a.mp
				}
				if err := w.write(s); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
			t.Cleanup(func() { betweenPhases = nil })
			rep, err := sys.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if chosen == nil {
				t.Fatal("the read phase chose no plan: the commit had nothing to reject")
			}
			if chosen.Explain() != before[query] {
				t.Fatalf("the read phase chose\n%s\nnot the plan before the %s\n%s", chosen.Explain(), w.name, before[query])
			}
			if n := seen.Load(); n != 0 {
				t.Errorf("query %d: the commit took a plan it did not choose after the %s (%d seen)", query, w.name, n)
			}

			want, err := twin.Run(sql)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rep.Total()) != math.Float64bits(want.Total()) ||
				storage.ChecksumData(rep.Result) != storage.ChecksumData(want.Result) {
				t.Errorf("query %d after a %s in the gap took %vs, the twin %vs", query, w.name, rep.Total(), want.Total())
			}
			if got, want := sys.StateDigest(), twin.StateDigest(); got != want {
				t.Errorf("after a %s in the gap the digest is %016x, the twin's %016x", w.name, got, want)
			}
		})
	}
}

// appendAt is AppendToLog that also reports where the append committed:
// before the query of sequence number seq, after reorgs reorganizations.
func appendAt(s *System, name string, lines []string) (seq, reorgs int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginOp()
	seq, reorgs = s.seq, len(s.reorgLog)
	if _, _, err = s.appendLocked(name, lines); err != nil {
		return seq, reorgs, err
	}
	return seq, reorgs, s.endOp()
}

// TestTwoSessionsLinearizeInCommitOrder runs two sessions on one warm
// MS-MISO system, reuse off and on: each draws its served Zipf stream, one
// of them reorganizes after every 40th completion, and one appends to the
// tweets log midway. Replaying the same operations one at a time in commit
// order — queries by sequence number, reorganizations by the query they
// preceded, the append where it committed — on a fresh system must give
// every query the same answer and end in the same StateDigest, simulated
// seconds included: the plans the read phases chose ahead are the ones the
// commits would have chosen.
func TestTwoSessionsLinearizeInCommitOrder(t *testing.T) {
	sqls := workload.SQLs()
	perSession := 120
	if testing.Short() {
		perSession = 50
	}
	const reorgEvery = 40
	for _, reuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			warm := func() *System {
				s := newPlanSystem(t, VariantMSMiso, func(c *Config) { c.Reuse.Enabled = reuse })
				for i, sql := range sqls {
					if _, err := s.Run(sql); err != nil {
						t.Fatalf("warm-up query %d: %v", i, err)
					}
				}
				return s
			}
			sys := warm()
			first := len(sqls) // the first served query's sequence number
			tweets, _ := sys.Catalog().Log(data.TweetsLog)
			extra := slices.Clone(tweets.Lines[:8])

			type answer struct {
				query int
				sum   uint64
			}
			var (
				mu                      sync.Mutex
				answers                 = map[int]answer{}
				appendSeq, appendReorgs = -1, 0
				done                    atomic.Int64
				wg                      sync.WaitGroup
			)
			for c := range 2 {
				next := servedDraw(c)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range perSession {
						qi := next()
						rep, err := sys.Run(sqls[qi])
						if err != nil {
							t.Errorf("session %d, query %d: %v", c, qi, err)
							return
						}
						mu.Lock()
						answers[rep.Seq] = answer{qi, storage.ChecksumData(rep.Result)}
						mu.Unlock()
						switch n := done.Add(1); {
						case n%reorgEvery == 0:
							err = sys.Reorganize()
						case n == int64(perSession)+7:
							var seq, reorgs int
							seq, reorgs, err = appendAt(sys, data.TweetsLog, extra)
							mu.Lock()
							appendSeq, appendReorgs = seq, reorgs
							mu.Unlock()
						}
						if err != nil {
							t.Errorf("session %d after %d completions: %v", c, done.Load(), err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if len(answers) != 2*perSession || appendSeq < 0 {
				t.Fatalf("%d answers and the append at %d; want %d answers and an append", len(answers), appendSeq, 2*perSession)
			}

			replay := warm()
			reorgs := sys.ReorgLog()
			r := 0
			// catchUp runs, in commit order, every reorganization and the
			// append that committed before the query of sequence number seq.
			catchUp := func(seq int) {
				for {
					var err error
					switch {
					case appendSeq == seq && appendReorgs == r:
						appendSeq = -1
						_, err = replay.AppendToLog(data.TweetsLog, extra)
					case r < len(reorgs) && reorgs[r].BeforeSeq <= seq && (appendSeq != seq || r < appendReorgs):
						r++
						err = replay.Reorganize()
					default:
						return
					}
					if err != nil {
						t.Fatalf("replay before query %d: %v", seq, err)
					}
				}
			}
			for seq := first; seq < first+2*perSession; seq++ {
				catchUp(seq)
				a := answers[seq]
				rep, err := replay.Run(sqls[a.query])
				if err != nil {
					t.Fatalf("replay of query %d (seq %d): %v", a.query, seq, err)
				}
				if rep.Seq != seq || storage.ChecksumData(rep.Result) != a.sum {
					t.Errorf("seq %d: query %d replayed as seq %d with checksum %016x, served %016x",
						seq, a.query, rep.Seq, storage.ChecksumData(rep.Result), a.sum)
				}
			}
			catchUp(first + 2*perSession)
			if r != len(reorgs) || appendSeq >= 0 {
				t.Fatalf("replayed %d of %d reorganizations, append pending: %v", r, len(reorgs), appendSeq >= 0)
			}
			if got, want := replay.StateDigest(), sys.StateDigest(); got != want {
				t.Errorf("the replay in commit order ends in digest %016x, the two sessions in %016x", got, want)
			}
		})
	}
}

// BenchmarkServedTwoSessions is served_cold's shape: a warm MS-MISO system,
// reuse off, over bench/'s data at its default scale and seed; two
// goroutines draw their served Zipf streams, and every 100th completion
// reorganizes. Each iteration serves 1 000 queries; the benchmark reports
// the p50 and p95 of their latencies. On 2 cores, in three alternating
// 10-iteration runs, the p95 was 1.20–1.23 ms with the whole query under
// System.mu and 0.88–0.94 ms with the plan chosen before it; the p50 stayed
// at 0.06 ms.
func BenchmarkServedTwoSessions(b *testing.B) {
	sqls := workload.SQLs()
	dc := data.DefaultConfig()
	dc.Seed = -42 // bench/'s inputs at its default seed
	cat, err := data.Generate(dc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.ReorgEvery = 0
	sys := New(cfg, cat)
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			b.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	draws := []func() int{servedDraw(0), servedDraw(1)}
	var lat []time.Duration
	var done atomic.Int64
	b.ResetTimer()
	for range b.N {
		var wg sync.WaitGroup
		var per [2][]time.Duration
		for c := range per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 500 {
					sql := sqls[draws[c]()]
					t0 := time.Now()
					if _, err := sys.Run(sql); err != nil {
						b.Error(err)
						return
					}
					per[c] = append(per[c], time.Since(t0))
					if done.Add(1)%100 == 0 {
						if err := sys.Reorganize(); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		lat = append(append(lat, per[0]...), per[1]...)
	}
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
	b.ReportMetric(ms(0.50), "p50-ms")
	b.ReportMetric(ms(0.95), "p95-ms")
}

// TestReadPhaseSkipsChoiceBeforeReorg runs the 32 paper queries on MS-MISO
// reorganizing every 3 queries. A read phase that sees a reorganization due
// before its query chooses nothing, since the reorganization moves the
// design the choice would read: no read-phase choice is thrown away (10 of
// the 32 were when the read phase chose before every query), and every
// answer and the final StateDigest equal a twin's whose queries all choose
// under the lock.
func TestReadPhaseSkipsChoiceBeforeReorg(t *testing.T) {
	run := func(early bool) (sums []uint64, digest uint64, dropped int) {
		sys := newPlanSystem(t, VariantMSMiso, func(c *Config) { c.ReorgEvery = 3 })
		planDropped = func(*System, *logical.Node) { dropped++ }
		betweenPhases = func(_ *System, a *ahead) {
			if !early {
				a.mp, a.fresh = nil, false
			}
		}
		defer func() { planDropped, betweenPhases = nil, nil }()
		for i, sql := range workload.SQLs() {
			rep, err := sys.Run(sql)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			sums = append(sums, storage.ChecksumData(rep.Result))
		}
		if n := len(sys.ReorgLog()); n == 0 {
			t.Fatal("no reorganization ran")
		}
		return sums, sys.StateDigest(), dropped
	}
	sums, digest, dropped := run(true)
	wantSums, wantDigest, _ := run(false)
	if dropped != 0 {
		t.Errorf("%d read-phase choices were thrown away; want none", dropped)
	}
	if !slices.Equal(sums, wantSums) {
		t.Errorf("answers differ from choosing under the lock:\n%v\n%v", sums, wantSums)
	}
	if digest != wantDigest {
		t.Errorf("state digest %x, choosing under the lock %x", digest, wantDigest)
	}
}
