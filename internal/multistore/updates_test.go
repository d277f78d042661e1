package multistore_test

import (
	"encoding/json"
	"testing"

	"miso/internal/data"
	"miso/internal/multistore"
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

	if _, err := sys.AppendToLog("no_such_log", []string{"{}"}); err == nil {
		t.Error("append to unknown log succeeded")
	}
}
