package exec_test

import (
	"strings"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/workload"
)

// operatorQueries exercises every operator the engines implement: extract
// (with and without UDF columns), filter, project, inner and left-ish
// joins, grouped/global/distinct aggregation with float sums, distinct,
// sort (asc/desc with heavy key ties), and limit.
var operatorQueries = []string{
	"SELECT tweet_id, user_id, ts, text, hashtag, lang, retweets, followers FROM tweets",
	"SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 10",
	"SELECT retweets * 2 AS dbl, UPPER(lang) AS lg, SENTIMENT(text) AS s FROM tweets",
	"SELECT t.tweet_id, u.lat FROM tweets t JOIN checkins u ON t.user_id = u.user_id WHERE u.lat > 40.0",
	"SELECT l.category, COUNT(*) AS visits, AVG(l.rating) AS rating FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id GROUP BY l.category ORDER BY visits DESC",
	"SELECT COUNT(*) AS n, SUM(lat) AS slat, MIN(lon) AS mn, MAX(lon) AS mx, AVG(lat) AS avglat FROM checkins",
	"SELECT COUNT(DISTINCT user_id) AS uniques, SUM(rating) AS r FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id",
	"SELECT DISTINCT lang, hashtag FROM tweets",
	"SELECT lang, retweets FROM tweets ORDER BY lang",
	"SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag ORDER BY n DESC LIMIT 5",
	"SELECT lang FROM tweets WHERE retweets < 0", // empty result
	"SELECT COUNT(*) AS n FROM tweets WHERE retweets < 0",
}

func runWorkers(t *testing.T, cat *storage.Catalog, sql string, workers, morselRows int) *storage.Table {
	t.Helper()
	env := &exec.Env{
		ReadLog:    func(name string) (*storage.LogFile, error) { return cat.Log(name) },
		Workers:    workers,
		MorselRows: morselRows,
	}
	return run(t, cat, env, sql)
}

// runRef executes sql with the reference operators (reference_test.go).
func runRef(t *testing.T, cat *storage.Catalog, sql string) *storage.Table {
	t.Helper()
	plan, err := logical.NewBuilder(cat).BuildSQL(sql)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	out, err := exec.RunReference(plan, env)
	if err != nil {
		t.Fatalf("reference run %q: %v", sql, err)
	}
	return out
}

// smallInputQueries run over views of a chosen size in
// TestMorselEngineByteIdenticalToSerial: every operator, and fused
// filter/project chains with and without an aggregate on top.
var smallInputQueries = []string{
	"SELECT lang, COUNT(*) AS n, SUM(retweets) AS s, AVG(followers) AS f FROM tweets GROUP BY lang",
	"SELECT COUNT(*) AS n, SUM(retweets) AS s, MIN(lang) AS mn FROM tweets",
	"SELECT retweets * 2 AS dbl, UPPER(lang) AS lg FROM tweets WHERE lang = 'en' AND retweets > 10",
	"SELECT hashtag, MAX(retweets) AS m FROM tweets WHERE retweets > 5 GROUP BY hashtag",
	"SELECT lang, retweets FROM tweets ORDER BY lang, retweets DESC",
	"SELECT DISTINCT lang, hashtag FROM tweets",
}

// smallJoinQuery joins the tweets view (the probe side) to the checkins
// view (the build side).
const smallJoinQuery = "SELECT t.tweet_id, t.lang, c.lat FROM tweets t JOIN checkins c ON t.user_id = c.user_id"

// TestMorselEngineByteIdenticalToSerial is the core determinism contract:
// for every operator, the morsel engine's output table must be digest-equal
// to the reference operators' at worker counts 1/2/4/8 and at morsel sizes
// that do and do not divide the input evenly. The operators also run over
// views at the sizes around the one-morsel schedule (empty, one row, a
// small view, and one morsel give or take a row), the join with each side
// small against a large other side.
func TestMorselEngineByteIdenticalToSerial(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for qi, sql := range operatorQueries {
		serial := runRef(t, cat, sql)
		want := storage.ChecksumTable(serial)
		for _, workers := range []int{1, 2, 4, 8} {
			for _, mr := range []int{0, 7, 997} {
				got := runWorkers(t, cat, sql, workers, mr)
				if g := storage.ChecksumTable(got); g != want {
					t.Errorf("query %d (%s): workers=%d morselRows=%d digest %x, serial %x (%d vs %d rows)",
						qi, strings.TrimSpace(sql)[:40], workers, mr, g, want, got.NumRows(), serial.NumRows())
				}
			}
		}
	}

	mr := exec.DefaultMorselRows
	large := 2*mr + 1
	vc := newViewCatalog(t)
	for _, rows := range []int{0, 1, 13, mr - 1, mr, mr + 1} {
		plans := []*logical.Node{
			vc.overViews(smallJoinQuery, large, rows),
			vc.overViews(smallJoinQuery, rows, large),
		}
		for _, sql := range smallInputQueries {
			plans = append(plans, vc.overViews(sql, rows))
		}
		for _, plan := range plans {
			serial, err := exec.RunReference(plan, vc.env(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			want := storage.ChecksumTable(serial)
			for _, workers := range []int{1, 2, 8} {
				got, err := exec.Run(plan, vc.env(workers, 0))
				if err != nil {
					t.Fatal(err)
				}
				if g := storage.ChecksumTable(got); g != want {
					t.Errorf("%d-row views, workers=%d: digest %x, serial %x (%d vs %d rows)\n%s",
						rows, workers, g, want, got.NumRows(), serial.NumRows(), plan)
				}
			}
		}
	}
}

// TestMorselEngineFullWorkloadDigest runs the paper's full 32-query
// workload through the engine and the reference operators on raw logs and
// compares per-query output digests.
func TestMorselEngineFullWorkloadDigest(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i, q := range workload.Evolving() {
		serial := runRef(t, cat, q.SQL)
		parallel := runWorkers(t, cat, q.SQL, 4, 512)
		if storage.ChecksumTable(serial) != storage.ChecksumTable(parallel) {
			t.Errorf("workload query %d (%s): parallel output diverged from serial", i, q.Name)
		}
	}
}

// TestSortFullRowTieBreak is the runSort determinism regression: rows with
// equal sort keys must come out ordered by the full row, in the reference
// sort and in the engine's, so equal-key orderings cannot drift with
// worker count.
func TestSortFullRowTieBreak(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	const sql = "SELECT lang, retweets FROM tweets ORDER BY lang"
	serial := runRef(t, cat, sql)
	for prev, i := (storage.Row)(nil), 0; i < len(serial.Rows); i++ {
		row := serial.Rows[i]
		if prev != nil && prev[0].S == row[0].S && prev[1].I > row[1].I {
			t.Fatalf("row %d: equal-key rows not full-row ordered: %v then %v", i, prev, row)
		}
		prev = row
	}
	for _, workers := range []int{1, 8} {
		got := runWorkers(t, cat, sql, workers, 64)
		if storage.ChecksumTable(got) != storage.ChecksumTable(serial) {
			t.Fatalf("sort output diverged at workers=%d", workers)
		}
	}
}

// TestExecStatsBreakdown checks the per-operator timing collector counts
// every operator of a query exactly once and is concurrency-safe enough to
// share across Envs.
func TestExecStatsBreakdown(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	st := &exec.Stats{}
	env := &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) },
		Stats:   st,
	}
	run(t, cat, env, "SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 5 GROUP BY lang ORDER BY n DESC LIMIT 3")
	want := map[string]int64{"extract": 1, "filter": 1, "aggregate": 1, "sort": 1, "limit": 1}
	got := map[string]int64{}
	var total time.Duration
	for _, row := range st.Breakdown() {
		got[row.Op] = row.Calls
		total += row.Time
	}
	for op, calls := range want {
		if got[op] != calls {
			t.Errorf("op %s: %d calls, want %d (got %v)", op, got[op], calls, got)
		}
	}
	if total <= 0 {
		t.Errorf("total recorded time = %v, want > 0", total)
	}
}

// TestMorselEngineScaleFactorPropagation checks the log's ScaleFactor
// reaches the output through the morsel paths, as it does through the
// reference operators.
func TestMorselEngineScaleFactorPropagation(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	log, _ := cat.Log(data.TweetsLog)
	const sql = "SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang"
	if out := runRef(t, cat, sql); out.ScaleFactor != log.ScaleFactor {
		t.Fatalf("reference: ScaleFactor %v, want %v", out.ScaleFactor, log.ScaleFactor)
	}
	if out := runWorkers(t, cat, sql, 4, 0); out.ScaleFactor != log.ScaleFactor {
		t.Fatalf("workers=4: ScaleFactor %v, want %v", out.ScaleFactor, log.ScaleFactor)
	}
}
