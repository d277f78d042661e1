package exec_test

import (
	"errors"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// handLines are tweets the generator never writes: each one takes a
// different road through the scanner, and a reused scan buffer must not
// carry one line's values into the next.
var handLines = []string{
	`{"tweet_id":-1,"text":"esc\"aped #love","lang":"en","retweets":7}`,    // escape: fallback decoder
	`{"tweet_id":-2,"text":"uni\u00e9 great","ts":1357257600,"lang":"fr"}`, // unicode escape: fallback
	`{not json at all`, // malformed: skipped
	`{"tweet_id":-3,"retweets":1,"retweets":450,"lang":"en","text":"best ever"}`, // duplicate key: last wins
	"{\"tweet_id\":-4,\"text\":\"bad\xff\xfe bytes\",\"lang\":\"en\"}",           // invalid UTF-8: fallback
	`{"tweet_id":-5}`, // every other field missing: NULLs
	`{"tweet_id":-6,"retweets":"499","followers":12.9,"ts":1e9,"text":"love it"}`, // coerced numbers
	`{"tweet_id":-7,"nested":{"a":1},"lang":"en","text":"terrible worst"}`,        // nested value: fallback
	`{"tweet_id":-8,"retweets":9223372036854775808,"text":"hate"}`,                // int overflow: float path
	`{"tweet_id":`, // truncated: skipped
}

// fusedScanCatalog is the small generated catalog with handLines spread
// through the tweets log.
func fusedScanCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	gen, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tweets, _ := gen.Log(data.TweetsLog)
	mixed := storage.NewLogFile(data.TweetsLog, tweets.FieldTypes)
	mixed.ScaleFactor = tweets.ScaleFactor
	every := len(tweets.Lines) / len(handLines)
	for i, line := range tweets.Lines {
		if i%every == 3 && i/every < len(handLines) {
			mixed.AppendLine(handLines[i/every])
		}
		mixed.AppendLine(line)
	}
	cat := storage.NewCatalog()
	cat.AddLog(mixed)
	for _, name := range []string{data.CheckinsLog, data.LandmarksLog} {
		l, _ := gen.Log(name)
		cat.AddLog(l)
	}
	return cat
}

var fusedScanQueries = []string{
	"SELECT tweet_id, user_id, ts, text, hashtag, lang, retweets, followers FROM tweets",
	"SELECT tweet_id, text FROM tweets WHERE ts >= 1357257600 AND ts < 1357516800",
	"SELECT tweet_id, retweets, text FROM tweets WHERE tweet_id < 0",
	"SELECT tweet_id, SENTIMENT(text) AS s FROM tweets WHERE SENTIMENT(text) > 0 AND retweets > 400", // filter on a hoisted UDF column
	"SELECT lang, COUNT(*) AS n, AVG(retweets) AS ar FROM tweets WHERE retweets > 100 GROUP BY lang",
	"SELECT COUNT(*) AS n, SUM(followers) AS f FROM tweets WHERE retweets < 0", // no survivor anywhere
	"SELECT t.tweet_id, c.lat FROM tweets t JOIN checkins c ON t.user_id = c.user_id WHERE t.retweets > 450",
	"SELECT hashtag, COUNT(*) AS n FROM tweets WHERE lang = 'en' GROUP BY hashtag ORDER BY n DESC LIMIT 5",
}

// TestFusedScanMatchesReference: a pipeline whose source is an Extract read
// from raw lines produces, at any worker count and morsel size, exactly the
// reference operators' table — over generated lines, the hand-written ones,
// morsels with no survivor (a 7-row morsel rarely has one) and an empty log.
func TestFusedScanMatchesReference(t *testing.T) {
	empty := storage.NewCatalog()
	empty.AddLog(storage.NewLogFile(data.TweetsLog, data.TweetFields()))
	empty.AddLog(storage.NewLogFile(data.CheckinsLog, data.CheckinFields()))
	for ci, cat := range []*storage.Catalog{fusedScanCatalog(t), empty} {
		readLog := func(name string) (*storage.LogFile, error) { return cat.Log(name) }
		for _, sql := range fusedScanQueries {
			plan, err := logical.NewBuilder(cat).BuildSQL(sql)
			if err != nil {
				t.Fatalf("build %q: %v", sql, err)
			}
			ref, err := exec.RunReference(plan, &exec.Env{ReadLog: readLog})
			if err != nil {
				t.Fatalf("reference %q: %v", sql, err)
			}
			want := storage.ChecksumTable(ref)
			for _, workers := range []int{1, 2, 4, 8} {
				for _, mr := range []int{7, 997, 0} {
					got, err := exec.Run(plan, &exec.Env{ReadLog: readLog, Workers: workers, MorselRows: mr})
					if err != nil {
						t.Fatalf("catalog %d %q w=%d mr=%d: %v", ci, sql, workers, mr, err)
					}
					if g := storage.ChecksumTable(got); g != want || got.RawBytes() != ref.RawBytes() {
						t.Fatalf("catalog %d %q w=%d mr=%d: digest %x (%d rows, %d B) != reference %x (%d rows, %d B)",
							ci, sql, workers, mr, g, got.NumRows(), got.RawBytes(), want, ref.NumRows(), ref.RawBytes())
					}
				}
			}
		}
	}
}

// TestRunPlanStatsMatchBuiltTables: every node of a plan reports the rows
// and bytes of the table the reference operators build for it, whichever
// nodes the caller keeps — so a store's statistics cannot tell a fused node
// from a materialized one — and a kept node's table is that table.
func TestRunPlanStatsMatchBuiltTables(t *testing.T) {
	cat := fusedScanCatalog(t)
	readLog := func(name string) (*storage.LogFile, error) { return cat.Log(name) }
	keeps := map[string]func(*logical.Node) bool{
		"none":    nil,
		"all":     func(*logical.Node) bool { return true },
		"filters": func(n *logical.Node) bool { return n.Kind == logical.KindFilter },
		"extract": func(n *logical.Node) bool { return n.Kind == logical.KindExtract },
	}
	for _, sql := range fusedScanQueries {
		plan, err := logical.NewBuilder(cat).BuildSQL(sql)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		for name, keep := range keeps {
			res, err := exec.RunPlan(plan, &exec.Env{ReadLog: readLog, Workers: 2, MorselRows: 97}, keep)
			if err != nil {
				t.Fatalf("%q keep=%s: %v", sql, name, err)
			}
			plan.Walk(func(n *logical.Node) {
				if n.Kind == logical.KindScan {
					return
				}
				ref, err := exec.RunReference(n, &exec.Env{ReadLog: readLog})
				if err != nil {
					t.Fatalf("reference %s: %v", n.Kind, err)
				}
				want := exec.NodeStat{Rows: int64(ref.NumRows()), RawBytes: ref.RawBytes(), ScaleFactor: ref.ScaleFactor}
				if got, ok := res.Stats[n]; !ok || got != want {
					t.Errorf("%q keep=%s: %s stat %+v (present %v), reference table %+v", sql, name, n.Kind, got, ok, want)
				}
				kept, ok := res.Tables[n]
				if ok != (keep != nil && keep(n)) {
					t.Errorf("%q keep=%s: %s table present = %v", sql, name, n.Kind, ok)
				}
				if ok && storage.ChecksumTable(kept) != storage.ChecksumTable(ref) {
					t.Errorf("%q keep=%s: kept %s table differs from the reference", sql, name, n.Kind)
				}
			})
		}
	}
}

// TestFusedScanChargesItsBuffers: a fused scan reserves its per-worker scan
// buffers for the length of the pass and its survivors as they leave them,
// and nothing for the Extract table it no longer builds.
func TestFusedScanChargesItsBuffers(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	readLog := func(name string) (*storage.LogFile, error) { return cat.Log(name) }
	plan, err := logical.NewBuilder(cat).BuildSQL(
		"SELECT tweet_id, text FROM tweets WHERE ts >= 1357257600 AND ts < 1357516800")
	if err != nil {
		t.Fatal(err)
	}
	const morselRows = 256
	extract := plan
	for extract.Kind != logical.KindExtract {
		extract = extract.Children[0]
	}
	oneBuffer := int64(morselRows * len(extract.Fields) * 24) // valueCost per slot
	run := func(limit int64) (*govern.Ledger, error) {
		mem := govern.NewLedger(limit)
		_, err := exec.Run(plan, &exec.Env{ReadLog: readLog, Workers: 2, MorselRows: morselRows, Mem: mem})
		return mem, err
	}

	if _, err := run(oneBuffer - 1); !errors.Is(err, govern.ErrMemLimit) {
		t.Fatalf("limit below one scan buffer: err = %v, want ErrMemLimit", err)
	}

	// The Extract table the node-by-node drivers built, and charged whole.
	full, err := exec.RunNode(extract, &exec.Env{ReadLog: readLog}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(plan, &exec.Env{ReadLog: readLog})
	if err != nil {
		t.Fatal(err)
	}
	// Two buffers, then per survivor a row reference in the filter, its
	// copy out of the buffer, the projected row and the output table's row.
	limit := 2*oneBuffer + 4*out.RawBytes() + 64*int64(out.NumRows())
	if limit >= full.RawBytes() {
		t.Fatalf("test is vacuous: limit %d B is not below the Extract table's %d B", limit, full.RawBytes())
	}
	mem, err := run(limit)
	if err != nil {
		t.Fatalf("limit %d B (Extract table alone: %d B): %v", limit, full.RawBytes(), err)
	}
	if hw := mem.HighWater(); hw < 2*oneBuffer {
		t.Errorf("high water %d B is below the two scan buffers' %d B", hw, 2*oneBuffer)
	}
	if mem.Used() != out.RawBytes() {
		t.Errorf("%d B reserved after the pass, want the root table's %d B: buffers and scopes are released", mem.Used(), out.RawBytes())
	}
	t.Logf("high water %d B under a %d B limit; the Extract table alone is %d B", mem.HighWater(), limit, full.RawBytes())

	// A run holds its scan buffers from the first Extract pass to its end:
	// when the second pass opens its log the ledger still carries the first
	// pass's buffers, beside the table that pass built, and the run releases
	// them with everything else it built and did not keep. (That the second
	// pass scans into them is TestHVQueryAllocationBounded's to show.)
	join, err := logical.NewBuilder(cat).BuildSQL(`SELECT t.tweet_id, c.lat FROM tweets t JOIN checkins c ON t.user_id = c.user_id
		WHERE t.retweets > 450 AND c.ts >= 1357257600 AND c.ts < 1357516800`)
	if err != nil {
		t.Fatal(err)
	}
	mem = govern.NewLedger(1 << 40)
	var between int64
	res, err := exec.RunPlan(join, &exec.Env{Workers: 2, MorselRows: morselRows, Mem: mem,
		ReadLog: func(name string) (*storage.LogFile, error) {
			if name == data.CheckinsLog {
				between = mem.Used()
			}
			return cat.Log(name)
		}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tweetsSide int64
	join.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindFilter && n.Children[0].Children[0].LogName == data.TweetsLog {
			tweetsSide = res.Stats[n].RawBytes
		}
	})
	if between != 2*oneBuffer+tweetsSide {
		t.Errorf("%d B reserved when the second pass starts, want the two held buffers' %d B plus the first pass's table, %d B",
			between, 2*oneBuffer, tweetsSide)
	}
	if mem.Used() != res.Root.RawBytes() {
		t.Errorf("%d B reserved after the run, want the root table's %d B", mem.Used(), res.Root.RawBytes())
	}
}

// TestDeferredFloatsAcrossChainShapes: checkins carries two float columns
// (lat, lon) that its window filter does not read, so a pass whose bottom
// stage is that filter leaves their literals unconverted until the selection
// is known. Every way a chain can read them afterwards — a second filter, a
// projection, a grouping key — and every shape that must defer nothing sees
// exactly the reference operators' rows, and every node reports their
// table's statistics.
func TestDeferredFloatsAcrossChainShapes(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	readLog := func(name string) (*storage.LogFile, error) { return cat.Log(name) }
	build := func(sql string) *logical.Node {
		t.Helper()
		plan, err := logical.NewBuilder(cat).BuildSQL(sql)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		return plan
	}
	under := func(n *logical.Node, k logical.Kind) *logical.Node {
		for n.Kind != k {
			n = n.Children[0]
		}
		return n
	}
	const window = "ts >= 1357257600 AND ts < 1357516800"
	// The builder folds a WHERE into one Filter: the second filter is the
	// north-of-40 query's, grafted over the window query's.
	twoFilters := under(build("SELECT checkin_id FROM checkins WHERE lat > 40"), logical.KindFilter).WithChildren(
		[]*logical.Node{under(build("SELECT checkin_id FROM checkins WHERE "+window), logical.KindFilter)})

	keepExtract := func(n *logical.Node) bool { return n.Kind == logical.KindExtract }
	for _, tc := range []struct {
		name string
		plan *logical.Node
		keep func(*logical.Node) bool
	}{
		{"filter, filter on a deferred float", twoFilters, nil},
		{"filter, project of deferred floats", build("SELECT checkin_id, lat, lon FROM checkins WHERE " + window), nil},
		{"filter, aggregate grouped on a deferred float", build("SELECT lat, COUNT(*) AS n, MAX(lon) AS east FROM checkins WHERE " + window + " GROUP BY lat"), nil},
		{"project, no filter: nothing deferred", build("SELECT checkin_id, lat FROM checkins"), nil},
		{"filter over a kept extract: nothing deferred", build("SELECT checkin_id, lat, lon FROM checkins WHERE " + window), keepExtract},
		{"filter that keeps nothing", build("SELECT lat, lon FROM checkins WHERE ts < 0"), nil},
		{"filter on the float itself", build("SELECT name, rating FROM landmarks WHERE rating >= 3.5"), nil},
	} {
		for _, workers := range []int{1, 4} {
			res, err := exec.RunPlan(tc.plan, &exec.Env{ReadLog: readLog, Workers: workers, MorselRows: 7}, tc.keep)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			tc.plan.Walk(func(n *logical.Node) {
				if n.Kind == logical.KindScan {
					return
				}
				ref, err := exec.RunReference(n, &exec.Env{ReadLog: readLog})
				if err != nil {
					t.Fatalf("%s: reference %s: %v", tc.name, n.Kind, err)
				}
				want := exec.NodeStat{Rows: int64(ref.NumRows()), RawBytes: ref.RawBytes(), ScaleFactor: ref.ScaleFactor}
				if got := res.Stats[n]; got != want {
					t.Errorf("%s, %d workers: %s stat %+v, reference table %+v", tc.name, workers, n.Kind, got, want)
				}
				built := res.Tables[n]
				if n == tc.plan {
					built = res.Root
				}
				if built != nil && storage.ChecksumTable(built) != storage.ChecksumTable(ref) {
					t.Errorf("%s, %d workers: %s table differs from the reference's", tc.name, workers, n.Kind)
				}
			})
		}
	}
}
