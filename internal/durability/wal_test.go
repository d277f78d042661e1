package durability

import (
	"errors"
	"reflect"
	"testing"

	"miso/internal/faults"
	"miso/internal/storage"
	"miso/internal/views"
)

// testRecords covers every record kind and every field group at least once.
func testRecords() []*Record {
	return []*Record{
		{Kind: KindViewAdmit, Store: StoreHV, Name: "v_0001", Seq: 3, Bytes: 1 << 20, Checksum: 0xdeadbeefcafe},
		{Kind: KindViewAdmit, Store: StoreDW, Name: "v_0002", Seq: 4, Bytes: 42, Checksum: 1},
		{Kind: KindViewEvict, Store: StoreDW, Name: "v_0001", Seq: 5},
		{Kind: KindQueryDone, SQL: "SELECT hashtag FROM tweets", Seq: 6, Bytes: 7,
			HVSeconds: 1.5, TransferSeconds: 0.25, DWSeconds: 3.75, RecoverySeconds: 10,
			Retries: 2, Flags: FlagFellBack | FlagHVOnly},
		{Kind: KindReorgBegin, Seq: 8},
		{Kind: KindReorgCommit, Seq: 8, MovedToDW: 2, MovedToHV: 1, Dropped: 3,
			FailedMoves: 1, RefundedBytes: 1 << 30, Bytes: 5 << 20, Seconds: 99.5, RecoverySeconds: 2.5, Retries: 4},
		{Kind: KindReorgAbort, Seq: 9, FailedMoves: 2, RefundedBytes: -1},
		{Kind: KindTransferBegin, Name: "tmp_q7", Seq: 7, Bytes: 123456, Checksum: 77},
		{Kind: KindTransferCommit, Name: "tmp_q7", Seq: 7},
		{Kind: KindTransferAbort, Name: "tmp_q8", Seq: 8},
		{Kind: KindRealize, Seq: 9, MovedToDW: 1, Bytes: 4 << 20, Seconds: 12.5, Retries: 1},
		{Kind: KindAppend, Name: "tweets", Seq: 10, HVSeconds: 3.25},
		{Kind: KindQueryDone, SQL: "", Seq: -1, Retries: 0, Flags: 0}, // zero-ish edge
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		frame := rec.encode(nil)
		got, next, err := decodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("%s: decode failed: %v", rec.Kind, err)
		}
		if next != len(frame) {
			t.Errorf("%s: decode consumed %d of %d bytes", rec.Kind, next, len(frame))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", rec.Kind, got, rec)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindViewAdmit.String() != "view-admit" || KindAppend.String() != "append" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("out-of-range kind name wrong")
	}
}

func TestReplayAndLSN(t *testing.T) {
	w := NewWAL(nil)
	recs := testRecords()
	var mid int
	for i, rec := range recs {
		if i == len(recs)/2 {
			mid = w.LSN()
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != len(recs) {
		t.Fatalf("Records() = %d, want %d", w.Records(), len(recs))
	}
	got, torn := w.Replay(0)
	if torn != 0 {
		t.Fatalf("clean log reports %d torn bytes", torn)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Replay from a mid-log LSN yields exactly the suffix.
	tail, torn := w.Replay(mid)
	if torn != 0 || len(tail) != len(recs)-len(recs)/2 {
		t.Fatalf("suffix replay: %d records, %d torn", len(tail), torn)
	}
	if !reflect.DeepEqual(tail[0], recs[len(recs)/2]) {
		t.Error("suffix replay starts at the wrong record")
	}
}

// TestTornTailEveryTruncation tears the log at every possible byte length
// and requires replay to stop cleanly: a prefix of intact records, correct
// torn-byte accounting, and no panic anywhere.
func TestTornTailEveryTruncation(t *testing.T) {
	recs := testRecords()[:4]
	full := NewWAL(nil)
	var bounds []int // frame end offsets
	for _, rec := range recs {
		if err := full.Append(rec); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, full.LSN())
	}
	total := full.LSN()
	for keep := 0; keep <= total; keep++ {
		w := NewWAL(nil)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Tear(total - keep)
		got, torn := w.Replay(0)
		// How many whole frames fit in keep bytes?
		want := 0
		for _, b := range bounds {
			if b <= keep {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("keep %d bytes: replayed %d records, want %d", keep, len(got), want)
		}
		wantTorn := keep
		if want > 0 {
			wantTorn = keep - bounds[want-1]
		}
		if torn != wantTorn {
			t.Fatalf("keep %d bytes: torn = %d, want %d", keep, torn, wantTorn)
		}
		for i := 0; i < want; i++ {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("keep %d bytes: record %d corrupted by tear", keep, i)
			}
		}
	}
}

func TestWALWriteCrashTearsAppend(t *testing.T) {
	inj := faults.NewInjector(faults.Profile{}.With(faults.SiteWALWrite, 1), 7)
	w := NewWAL(inj)
	if err := w.Append(&Record{Kind: KindQueryDone, SQL: "SELECT 1", Seq: 0}); err == nil {
		t.Fatal("armed WAL-write site did not crash the append")
	} else if !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("append error %v is not an ErrCrash", err)
	}
	if w.Records() != 0 {
		t.Error("torn append counted as durable")
	}
	if w.LSN() >= len((&Record{Kind: KindQueryDone, SQL: "SELECT 1"}).encode(nil)) {
		t.Error("torn append wrote a full frame")
	}
	recs, _ := w.Replay(0)
	if len(recs) != 0 {
		t.Error("torn prefix decoded as a record")
	}
}

func testView(t *testing.T, name string) *views.View {
	t.Helper()
	sch, err := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "tag", Type: storage.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(name, sch)
	tbl.MustAppend(storage.Row{storage.IntValue(1), storage.StringValue("alpha")})
	tbl.MustAppend(storage.Row{storage.IntValue(2), storage.StringValue("beta")})
	return &views.View{Name: name, Table: tbl, Checksum: storage.ChecksumTable(tbl)}
}

// TestCleanPayloadIsTheLiveView: with no corruption drawn, the payload is
// the admitted view itself. A Touch and a rot, each through the live set,
// install new structs, so the payload, and a checkpoint taken before them,
// stay exactly as admitted.
func TestCleanPayloadIsTheLiveView(t *testing.T) {
	w := NewWAL(nil)
	v := testView(t, "v_payload")
	live := views.NewSet()
	live.Add(v)
	w.PutPayload(v)
	ck := NewManager(1, w).Checkpoint(0, live.All())
	stored, ok := w.Payload("v_payload")
	if !ok {
		t.Fatal("payload missing")
	}
	if stored != v {
		t.Fatal("clean payload is not the admitted view")
	}

	live.Touch(v.Name, 9)
	touched, _ := live.Get(v.Name)
	rotted := *touched
	rotted.Table = touched.Table.Clone()
	CorruptTable(rotted.Table, 0.5)
	live.Add(&rotted)
	if now, _ := live.Get(v.Name); now.LastUsedSeq != 9 || now.Verify() {
		t.Fatalf("live view: LastUsedSeq %d, verifies %v; want the touched, rotted one", now.LastUsedSeq, now.Verify())
	}
	kept := ck.State.([]*views.View)[0]
	for what, held := range map[string]*views.View{"payload": stored, "checkpoint": kept} {
		if held != v || held.LastUsedSeq != 0 || !held.Verify() {
			t.Errorf("the %s followed the live set: LastUsedSeq %d, verifies %v", what, held.LastUsedSeq, held.Verify())
		}
	}
}

func TestPayloadCorruption(t *testing.T) {
	inj := faults.NewInjector(faults.Profile{}.With(faults.SiteViewCorrupt, 1), 11)
	w := NewWAL(inj)
	v := testView(t, "v_corrupt")
	w.PutPayload(v)
	stored, ok := w.Payload("v_corrupt")
	if !ok {
		t.Fatal("payload missing")
	}
	if stored.Verify() {
		t.Error("corrupted payload still verifies")
	}
	if !v.Verify() {
		t.Error("corruption leaked into the live view")
	}
	if stored.Table.RawBytes() != v.Table.RawBytes() {
		t.Error("corruption changed the encoded size")
	}
}

// TestCorruptTableEveryKind drives the flip over each value kind and checks
// it is size-preserving and checksum-visible.
func TestCorruptTableEveryKind(t *testing.T) {
	sch, err := storage.NewSchema(storage.Column{Name: "c", Type: storage.KindString})
	if err != nil {
		t.Fatal(err)
	}
	cases := []storage.Value{
		storage.IntValue(7),
		storage.FloatValue(2.5),
		storage.BoolValue(true),
		storage.StringValue("x"),
	}
	for i, val := range cases {
		tbl := storage.NewTable("t", sch)
		tbl.MustAppend(storage.Row{val})
		before := storage.ChecksumTable(tbl)
		size := tbl.RawBytes()
		CorruptTable(tbl, float64(i)/float64(len(cases)))
		if storage.ChecksumTable(tbl) == before {
			t.Errorf("case %d: flip not visible to checksum", i)
		}
		if tbl.RawBytes() != size {
			t.Errorf("case %d: flip changed encoded size", i)
		}
	}
	// Tables with nothing to flip are left alone.
	CorruptTable(nil, 0.5)
	empty := storage.NewTable("e", sch)
	CorruptTable(empty, 0.5)
}

func TestManagerCadence(t *testing.T) {
	w := NewWAL(nil)
	m := NewManager(3, w)
	if m.Every() != 3 || m.Latest() != nil || m.Checkpoints() != 0 {
		t.Fatal("fresh manager state wrong")
	}
	calls := 0
	state := func() any { calls++; return calls }
	for op := 1; op <= 7; op++ {
		m.MaybeCheckpoint(op, state)
	}
	// Cadence 3 over 7 ops: checkpoints after ops 3 and 6.
	if m.Checkpoints() != 2 || calls != 2 {
		t.Fatalf("checkpoints = %d (state calls %d), want 2", m.Checkpoints(), calls)
	}
	if ck := m.Latest(); ck == nil || ck.Seq != 6 || ck.State != 2 {
		t.Fatalf("latest checkpoint = %+v", m.Latest())
	}
	// An explicit checkpoint resets the cadence counter.
	ck := m.Checkpoint(9, "manual")
	if m.Latest() != ck || ck.LSN != w.LSN() {
		t.Error("explicit checkpoint not installed at the WAL head")
	}
	m.MaybeCheckpoint(10, state)
	m.MaybeCheckpoint(11, state)
	if m.Checkpoints() != 3 {
		t.Error("cadence not reset by explicit checkpoint")
	}
	// Cadence clamps to a minimum of 1.
	if NewManager(0, w).Every() != 1 {
		t.Error("zero cadence not clamped")
	}
}

// TestCheckpointTruncatesTheLog: a checkpoint drops the log before it, LSNs
// stay absolute across the cut, replay from the checkpoint reads exactly
// what followed it, and replay from before the cut is refused.
func TestCheckpointTruncatesTheLog(t *testing.T) {
	w := NewWAL(nil)
	m := NewManager(100, w)
	for i := 0; i < 5; i++ {
		if err := w.Append(&Record{Kind: KindQueryDone, SQL: "SELECT 1", Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := w.LSN()
	ck := m.Checkpoint(5, "state")
	if ck.LSN != before || w.LSN() != before {
		t.Fatalf("checkpoint at LSN %d, log ends at %d; was %d", ck.LSN, w.LSN(), before)
	}
	if recs, torn := w.Replay(ck.LSN); len(recs) != 0 || torn != 0 {
		t.Fatalf("replay past the checkpoint: %d records, %d torn bytes", len(recs), torn)
	}
	if err := w.Append(&Record{Kind: KindQueryDone, SQL: "SELECT 2", Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if recs, _ := w.Replay(ck.LSN); len(recs) != 1 || recs[0].SQL != "SELECT 2" || w.LSN() <= before {
		t.Fatalf("replay past the checkpoint: %+v, log ends at %d", recs, w.LSN())
	}
	if w.Records() != 6 {
		t.Errorf("%d records appended, want 6", w.Records())
	}
	defer func() {
		if recover() == nil {
			t.Error("replay from before the truncation did not panic")
		}
	}()
	w.Replay(0)
}

// TestFold pins how the one reader of the journal resolves its
// transactions: a window takes effect at its commit, an abort or the end
// of the log drops it, and a transfer begin nothing closed is pending.
func TestFold(t *testing.T) {
	rec := func(k Kind, name string) *Record { return &Record{Kind: k, Name: name} }
	begin, commit, abort := rec(KindReorgBegin, ""), rec(KindReorgCommit, ""), rec(KindReorgAbort, "")
	admitA, admitB, evictC := rec(KindViewAdmit, "A"), rec(KindViewAdmit, "B"), rec(KindViewEvict, "C")
	done := rec(KindQueryDone, "")
	tBegin, tBegin2, tCommit := rec(KindTransferBegin, "ws_1"), rec(KindTransferBegin, "ws_2"), rec(KindTransferCommit, "ws_1")
	for _, tc := range []struct {
		name    string
		recs    []*Record
		applied []*Record
		open    bool
		pending []*Record
	}{
		{name: "an aborted window is dropped and closed",
			recs: []*Record{begin, admitA, abort, admitB}, applied: []*Record{admitB}},
		{name: "a window open at end of log applies nothing",
			recs: []*Record{begin, admitA}, open: true},
		{name: "a committed window lands at its commit, the commit after it",
			recs:    []*Record{admitB, begin, admitA, done, evictC, commit},
			applied: []*Record{admitB, done, admitA, evictC, commit}},
		{name: "a second begin drops the first window",
			recs: []*Record{begin, admitA, begin, admitB, commit}, applied: []*Record{admitB, commit}},
		{name: "a transfer begin without a close is pending",
			recs: []*Record{tBegin, tBegin2, tCommit, done}, applied: []*Record{done}, pending: []*Record{tBegin2}},
	} {
		d := Fold(tc.recs)
		if !reflect.DeepEqual(d.Applied, tc.applied) || d.OpenReorg != tc.open || !reflect.DeepEqual(d.PendingTransfers, tc.pending) {
			t.Errorf("%s: folded to %+v", tc.name, d)
		}
	}
}
