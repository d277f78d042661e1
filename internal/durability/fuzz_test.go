package durability

import (
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder: it must never
// panic, and anything it does accept must survive a re-encode/re-decode
// round trip unchanged. (Byte-level canonicality is not promised — varint
// decoding accepts non-minimal encodings — but the record semantics are.)
func FuzzDecodeFrame(f *testing.F) {
	for _, rec := range testRecords() {
		f.Add(rec.encode(nil))
	}
	frame := (&Record{Kind: KindQueryDone, SQL: "SELECT 1", Seq: 2}).encode(nil)
	for cut := 0; cut < len(frame); cut += 3 {
		f.Add(frame[:cut])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, next, err := decodeFrame(data, 0)
		if err != nil {
			return
		}
		if next <= 0 || next > len(data) {
			t.Fatalf("accepted frame with bad end offset %d of %d", next, len(data))
		}
		if rec.Kind == 0 || rec.Kind >= kindEnd {
			t.Fatalf("accepted invalid kind %d", rec.Kind)
		}
		again, _, err := decodeFrame(rec.encode(nil), 0)
		if err != nil {
			t.Fatalf("re-encoded accepted record fails to decode: %v", err)
		}
		if !recordsEquivalent(rec, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}

// recordsEquivalent compares records field-wise, treating float fields by
// their bit patterns so NaN payloads from fuzzed bytes compare stably.
func recordsEquivalent(a, b *Record) bool {
	fa, fb := *a, *b
	for _, p := range []*float64{
		&fa.Seconds, &fa.RecoverySeconds, &fa.HVSeconds, &fa.TransferSeconds, &fa.DWSeconds,
		&fb.Seconds, &fb.RecoverySeconds, &fb.HVSeconds, &fb.TransferSeconds, &fb.DWSeconds,
	} {
		*p = 0
	}
	if !reflect.DeepEqual(&fa, &fb) {
		return false
	}
	for _, pair := range [][2]float64{
		{a.Seconds, b.Seconds}, {a.RecoverySeconds, b.RecoverySeconds},
		{a.HVSeconds, b.HVSeconds}, {a.TransferSeconds, b.TransferSeconds},
		{a.DWSeconds, b.DWSeconds},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// FuzzReplayTornTail appends real records, tears an arbitrary tail length,
// and requires replay to return an intact prefix without panicking.
func FuzzReplayTornTail(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(1))
	f.Add(uint16(500))
	f.Fuzz(func(t *testing.T, tear uint16) {
		recs := testRecords()
		w := NewWAL(nil)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Tear(int(tear))
		got, torn := w.Replay(0)
		if len(got) > len(recs) {
			t.Fatal("replay invented records")
		}
		if torn < 0 || torn > w.LSN() {
			t.Fatalf("torn bytes %d out of range", torn)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("record %d corrupted by tear", i)
			}
		}
	})
}

// FuzzFoldTornLog journals one record per fuzzed byte (the byte picks the
// kind and one of four names), tears a tail, and folds whatever Replay
// returns. Fold must not panic and must agree with the journal's contract
// read positionally: an admit or evict whose nearest earlier window mark is
// a begin takes effect at the next window mark if that is a commit and
// never otherwise; every other record except the window marks' begin and
// abort and the transfer lifecycle takes effect where it stands, exactly
// once; the log is open iff its last window mark is a begin; a transfer
// begin is pending iff no later transfer record bears its name. The seeds
// are testdata/fuzz/FuzzFoldTornLog (byte%10 + 1 is the Kind, byte>>6 the
// name).
func FuzzFoldTornLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte, tear uint16) {
		if len(shape) > 64 {
			shape = shape[:64] // long logs add nothing: every interleaving fits
		}
		w := NewWAL(nil)
		for i, s := range shape {
			rec := &Record{Kind: Kind(s%byte(kindEnd-1)) + 1, Name: string('a' + rune(s>>6)), Seq: int64(i)}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Tear(int(tear))
		recs, _ := w.Replay(0)
		d := Fold(recs)

		mark := func(k Kind) bool { return k == KindReorgBegin || k == KindReorgCommit || k == KindReorgAbort }
		transfer := func(k Kind) bool {
			return k == KindTransferBegin || k == KindTransferCommit || k == KindTransferAbort
		}
		// at[i] is where recs[i] takes effect (its own position, or its
		// window's commit); -1 when it never does.
		at := make([]int, len(recs))
		lastMark := Kind(0)
		var wantPending []*Record
		for i, rec := range recs {
			at[i] = i
			switch {
			case mark(rec.Kind):
				lastMark = rec.Kind
				if rec.Kind != KindReorgCommit {
					at[i] = -1
				}
			case transfer(rec.Kind):
				at[i] = -1
				closed := false
				for _, later := range recs[i+1:] {
					closed = closed || transfer(later.Kind) && later.Name == rec.Name
				}
				if rec.Kind == KindTransferBegin && !closed {
					wantPending = append(wantPending, rec)
				}
			case rec.Kind == KindViewAdmit || rec.Kind == KindViewEvict:
				if lastMark != KindReorgBegin {
					break
				}
				at[i] = -1
				for j := i + 1; j < len(recs); j++ {
					if mark(recs[j].Kind) {
						if recs[j].Kind == KindReorgCommit {
							at[i] = j
						}
						break
					}
				}
			}
		}
		var want []*Record
		for pos := range recs { // effect order: by position, a window's records before its commit
			for i := 0; i < pos; i++ {
				if at[i] == pos {
					want = append(want, recs[i])
				}
			}
			if at[pos] == pos {
				want = append(want, recs[pos])
			}
		}
		if !reflect.DeepEqual(d.Applied, want) {
			t.Fatalf("applied %v, want %v over %v", seqs(d.Applied), seqs(want), recs)
		}
		if d.OpenReorg != (lastMark == KindReorgBegin) {
			t.Fatalf("open window %v after a last mark of %v", d.OpenReorg, lastMark)
		}
		if !reflect.DeepEqual(d.PendingTransfers, wantPending) {
			t.Fatalf("pending transfers %v, want %v", seqs(d.PendingTransfers), seqs(wantPending))
		}
	})
}

func seqs(recs []*Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}
