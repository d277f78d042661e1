package multistore

import "testing"

// TestReportLogRing: the log retains the newest reportCap reports in order,
// counts the rest, and its fold is a function of what was evicted — so the
// state digest still tells apart two histories that differ only in a report
// that has since fallen off the ring.
func TestReportLogRing(t *testing.T) {
	fill := func(n int, edit func(*QueryReport)) *reportLog {
		l := &reportLog{}
		for i := 0; i < n; i++ {
			r := &QueryReport{Seq: i, SQL: "q", HVSeconds: float64(i)}
			if edit != nil {
				edit(r)
			}
			l.add(r)
		}
		return l
	}
	if l := fill(reportCap, nil); l.evicted != 0 || l.fold != 0 || l.total() != reportCap {
		t.Fatalf("a full ring evicted %d (fold %x)", l.evicted, l.fold)
	}
	const n = 2*reportCap + 44
	l := fill(n, nil)
	if l.total() != n || l.evicted != n-reportCap {
		t.Fatalf("total %d evicted %d, want %d and %d", l.total(), l.evicted, n, n-reportCap)
	}
	next := n - reportCap
	l.each(func(r *QueryReport) {
		if r.Seq != next {
			t.Fatalf("retained out of order: seq %d, want %d", r.Seq, next)
		}
		next++
	})
	if next != n {
		t.Fatalf("each stopped at seq %d, want %d", next, n)
	}
	if same := fill(n, nil); same.fold != l.fold {
		t.Fatal("equal histories fold differently")
	}
	evictedOne := fill(n, func(r *QueryReport) {
		if r.Seq == 3 {
			r.Retries = 1
		}
	})
	if evictedOne.fold == l.fold {
		t.Fatal("fold does not cover an evicted report's fields")
	}
	a, b := &QueryReport{Seq: 1, SQL: "a"}, &QueryReport{Seq: 2, SQL: "b"}
	ab, ba := &reportLog{}, &reportLog{}
	ab.add(a)
	ab.add(b)
	ba.add(b)
	ba.add(a)
	for i := 0; i < reportCap; i++ {
		ab.add(&QueryReport{})
		ba.add(&QueryReport{})
	}
	if ab.evicted != 2 || ab.fold == ba.fold {
		t.Fatal("fold does not cover eviction order")
	}
}
