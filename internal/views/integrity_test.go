package views_test

import (
	"testing"

	"miso/internal/storage"
	"miso/internal/views"
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

// TestTouchReplacesTheView: Touch installs a new struct stamped with the
// query's sequence over everything the old one shared, and a pointer held
// from before keeps its recency; an absent name is refused without a write,
// and a repeat sequence writes — and allocates — nothing.
func TestTouchReplacesTheView(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	s := views.NewSet()
	s.Add(v)
	if !s.Touch(v.Name, 7) {
		t.Fatal("Touch refused a member")
	}
	got, _ := s.Get(v.Name)
	if got == v || got.LastUsedSeq != 7 {
		t.Fatalf("touched view %p LastUsedSeq %d, held %p", got, got.LastUsedSeq, v)
	}
	if got.Table != v.Table || got.Def != v.Def || got.Desc != v.Desc || got.Checksum != v.Checksum {
		t.Error("Touch copied or changed what it should share")
	}
	if v.LastUsedSeq != 0 || !v.Verify() {
		t.Error("Touch wrote the held view")
	}
	if s.Touch("v_absent", 8) || s.Len() != 1 || s.Has("v_absent") {
		t.Error("Touch of an absent name changed the set")
	}
	if !s.Touch(v.Name, 7) {
		t.Fatal("repeat Touch refused a member")
	}
	if again, _ := s.Get(v.Name); again != got {
		t.Error("a repeat sequence replaced the view")
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if a := testing.AllocsPerRun(20, func() { s.Touch(v.Name, 7) }); a != 0 {
		t.Errorf("a repeat Touch allocates %.0f times", a)
	}
}

func TestBaseLogs(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	if logs := v.BaseLogs(); len(logs) != 1 || logs[0] != "tweets" {
		t.Fatalf("BaseLogs = %v, want [tweets]", logs)
	}
	j := f.makeView(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id WHERE c.category = 'bar'`)
	if got := j.BaseLogs(); len(got) != 2 {
		t.Fatalf("join BaseLogs = %v", got)
	}
}
