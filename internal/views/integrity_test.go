package views_test

import (
	"testing"

	"miso/internal/storage"
)

func TestVerifyDetectsCorruption(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	if v.Checksum == 0 {
		t.Fatal("materialized view not stamped with a checksum")
	}
	if !v.Verify() {
		t.Fatal("fresh view fails verification")
	}
	if v.Table.NumRows() == 0 {
		t.Fatal("fixture view is empty; corruption test needs rows")
	}
	v.Table.Rows[0][0] = storage.StringValue("tampered")
	if v.Verify() {
		t.Error("tampered view still verifies")
	}
}

// TestCloneKeepsWhatItWasTakenWith: a clone shares everything nothing
// writes after install, and owns the two fields that are written:
// LastUsedSeq, and the Table pointer bit rot swaps for a corrupted copy.
func TestCloneKeepsWhatItWasTakenWith(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	c := v.Clone()
	if c.Table != v.Table || c.Def != v.Def || c.Desc != v.Desc {
		t.Fatal("clone copied structure nothing writes")
	}
	rotted := v.Table.Clone()
	rotted.Rows[0][0] = storage.StringValue("tampered")
	v.Table, v.LastUsedSeq = rotted, v.LastUsedSeq+7
	if v.Verify() {
		t.Error("rotted original still verifies")
	}
	if !c.Verify() || c.LastUsedSeq == v.LastUsedSeq {
		t.Error("clone followed the original's writes")
	}
}

func TestStampGenerationsAndStaleness(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	logs := v.BaseLogs()
	if len(logs) != 1 || logs[0] != "tweets" {
		t.Fatalf("BaseLogs = %v, want [tweets]", logs)
	}
	gen := func(g int) func(string) (int, bool) {
		return func(name string) (int, bool) {
			if name != "tweets" {
				return 0, false
			}
			return g, true
		}
	}
	v.StampGenerations(gen(2))
	if v.LogGens["tweets"] != 2 {
		t.Fatalf("stamped generations %v", v.LogGens)
	}
	if v.Stale(gen(2)) {
		t.Error("view stale at its own generation")
	}
	if !v.Stale(gen(3)) {
		t.Error("view not stale after the log advanced")
	}
	// Unknown logs contribute no stamp and never staleness.
	unknown := func(string) (int, bool) { return 0, false }
	if v.Stale(unknown) {
		t.Error("unknown log reported stale")
	}
	// A join view stamps every base log and goes stale if any advances.
	j := f.makeView(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id WHERE c.category = 'bar'`)
	if got := j.BaseLogs(); len(got) != 2 {
		t.Fatalf("join BaseLogs = %v", got)
	}
	j.StampGenerations(func(string) (int, bool) { return 0, true })
	if !j.Stale(func(name string) (int, bool) {
		if name == "landmarks" {
			return 1, true
		}
		return 0, true
	}) {
		t.Error("join view not stale after one base log advanced")
	}
}

func TestUnstampedViewsNeverStale(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets")
	if v.Stale(func(string) (int, bool) { return 99, true }) {
		t.Error("unstamped view reported stale")
	}
}
