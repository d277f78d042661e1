package multistore_test

import (
	"encoding/json"
	"slices"
	"testing"

	"miso/internal/data"
	"miso/internal/multistore"
	"miso/internal/views"
	"miso/internal/workload"
)

func tweetLine(t *testing.T, id int64) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"tweet_id": id, "user_id": int64(1), "ts": int64(1357000000),
		"text": "amazing burger #food", "hashtag": "food", "lang": "en",
		"retweets": int64(300), "followers": int64(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStaleViewsQuarantinedAtNextQuery: a log reset behind the system's
// back (no RefreshLog, so nothing drops views eagerly) leaves every view
// over that log stale, and the next query's prologue quarantines all of
// them — and only them — before anything can read one.
func TestStaleViewsQuarantinedAtNextQuery(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	overTweets := func() (over, other int) {
		for _, set := range []*views.Set{sys.HV().Views, sys.DW().Views} {
			for _, v := range set.All() {
				if slices.Contains(v.BaseLogs(), data.TweetsLog) {
					over++
				} else {
					other++
				}
			}
		}
		return over, other
	}
	stale, kept := overTweets()
	if stale == 0 || kept == 0 {
		t.Fatalf("warm design holds %d views over tweets and %d others; want both", stale, kept)
	}
	before := sys.Metrics().Quarantined

	log, err := cat.Log(data.TweetsLog)
	if err != nil {
		t.Fatal(err)
	}
	log.Reset()
	q, _ := workload.ByName("A2v1") // checkins + landmarks: captures nothing over tweets
	if _, err := sys.Run(q.SQL); err != nil {
		t.Fatal(err)
	}
	if left, others := overTweets(); left != 0 || others < kept {
		t.Errorf("after the query: %d views over tweets remain (want 0), %d others (want >= %d)", left, others, kept)
	}
	if got := sys.Metrics().Quarantined - before; got != stale {
		t.Errorf("Quarantined moved by %d, want %d", got, stale)
	}
}

func TestAppendChangesQueryResults(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)

	count := `SELECT COUNT(*) AS n FROM tweets WHERE hashtag = 'food' AND retweets > 250`
	before, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AppendToLog(data.TweetsLog, []string{
		tweetLine(t, 2_000_001), tweetLine(t, 2_000_002),
	}); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if after.Result.Rows[0][0].I != before.Result.Rows[0][0].I+2 {
		t.Errorf("count %d -> %d, want +2",
			before.Result.Rows[0][0].I, after.Result.Rows[0][0].I)
	}
}

func TestRefreshLogReplacesData(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)

	if _, err := sys.RefreshLog(data.TweetsLog, []string{
		tweetLine(t, 1), tweetLine(t, 2), tweetLine(t, 3),
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run("SELECT COUNT(*) AS n FROM tweets")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Rows[0][0].I != 3 {
		t.Errorf("refreshed log has %d rows, want 3", rep.Result.Rows[0][0].I)
	}

	if _, err := sys.AppendToLog("no_such_log", []string{"{}"}); err == nil {
		t.Error("append to unknown log succeeded")
	}
}
