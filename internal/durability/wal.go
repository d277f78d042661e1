package durability

import (
	"fmt"
	"sync"

	"miso/internal/faults"
	"miso/internal/storage"
	"miso/internal/views"
)

// WAL is the append-only write-ahead log plus the durable view payload
// space. Records carry the design mutations; payloads carry the view bytes
// an admit record points at: the admitted view itself, shared with the live
// set that later replaces rather than writes it (see PutPayload).
//
// Both fault sites the WAL owns are drawn at write time, mirroring when
// real storage breaks: SiteWALWrite tears the append (only a seeded prefix
// of the frame lands, and the process is considered dead — Append returns
// faults.ErrCrash), SiteViewCorrupt flips a value inside the durable
// payload copy, to be caught by checksum verification at recovery.
type WAL struct {
	mu  sync.Mutex
	buf []byte
	// base is the LSN of buf[0]: the log before it was dropped at a
	// checkpoint (truncate).
	base     int
	records  int
	inj      *faults.Injector
	payloads map[string]*views.View
}

// NewWAL creates an empty log armed with the injector (nil disables both
// fault sites).
func NewWAL(inj *faults.Injector) *WAL {
	return &WAL{inj: inj, payloads: map[string]*views.View{}}
}

// Append journals one record. When SiteWALWrite fires, only a seeded
// prefix of the frame is written — the record is lost, replay will stop at
// the tear — and Append reports the simulated process death by returning
// an error wrapping faults.ErrCrash.
func (w *WAL) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame := rec.encode(nil)
	if failed, frac := w.inj.Check(faults.SiteWALWrite); failed {
		n := int(frac * float64(len(frame)))
		if n >= len(frame) {
			n = len(frame) - 1
		}
		w.buf = append(w.buf, frame[:n]...)
		return faults.Crash(faults.SiteWALWrite)
	}
	w.buf = append(w.buf, frame...)
	w.records++
	return nil
}

// LSN returns the current end-of-log byte offset; checkpoints record it so
// replay starts past everything the checkpoint already captured.
func (w *WAL) LSN() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base + len(w.buf)
}

// truncate drops the whole log and returns its end LSN, where a checkpoint
// that holds the state the log described starts replay. The log a served
// system keeps is then what it wrote since its last checkpoint, not
// everything it ever wrote. Payloads stay: there is one per view name.
func (w *WAL) truncate() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.base += len(w.buf)
	w.buf = nil
	return w.base
}

// Records returns how many records were durably appended.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Tear truncates up to n bytes off the log tail, simulating a crash that
// lost the end of the file. Used by tests and the crash harness; injected
// tears happen organically through SiteWALWrite.
func (w *WAL) Tear(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= 0 {
		return
	}
	if n > len(w.buf) {
		n = len(w.buf)
	}
	w.buf = w.buf[:len(w.buf)-n]
}

// Replay decodes records starting at byte offset lsn. It stops cleanly at
// the first torn or corrupt frame — never panicking on its content — and
// reports how many unreadable tail bytes it discarded. lsn must not precede
// the last truncate: the records before it are gone.
func (w *WAL) Replay(lsn int) (recs []*Record, tornBytes int) {
	w.mu.Lock()
	buf, base := w.buf, w.base
	w.mu.Unlock()
	if lsn < base {
		if base > 0 {
			panic(fmt.Sprintf("durability: replay from LSN %d, but the log before %d was truncated", lsn, base))
		}
		lsn = 0
	}
	off := lsn - base
	for off < len(buf) {
		rec, next, err := decodeFrame(buf, off)
		if err != nil {
			return recs, len(buf) - off
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, 0
}

// Durable is what a replayed record stream amounts to once its
// transactions are resolved.
type Durable struct {
	// Applied holds the records that took effect, in the order they did: a
	// record outside a reorganization window where it stands, a window's
	// admits and evicts at its commit, followed by the commit record.
	Applied []*Record
	// OpenReorg reports a reorganization window with neither commit nor
	// abort by end of log: an in-flight reorganization, rolled back.
	OpenReorg bool
	// PendingTransfers are the transfer begins, in log order, that no
	// commit or abort closed: temp loads that were in flight.
	PendingTransfers []*Record
}

// Fold resolves the transactions in a replayed record stream. It is the
// one reader of the journal's begin..commit windows — recovery applies what
// it returns, the online audit checks the live state against it. Admits
// and evicts inside a reorganization window take effect only at a durable
// commit; an abort, a second begin or the end of the log drops them.
func Fold(recs []*Record) Durable {
	var d Durable
	var window []*Record
	pending := map[string]*Record{}
	for _, rec := range recs {
		switch rec.Kind {
		case KindReorgBegin, KindReorgAbort:
			d.OpenReorg, window = rec.Kind == KindReorgBegin, window[:0]
		case KindReorgCommit:
			d.Applied = append(append(d.Applied, window...), rec)
			d.OpenReorg, window = false, window[:0]
		case KindTransferBegin:
			pending[rec.Name] = rec
		case KindTransferCommit, KindTransferAbort:
			delete(pending, rec.Name)
		case KindViewAdmit, KindViewEvict:
			if d.OpenReorg {
				window = append(window, rec)
				continue
			}
			fallthrough
		default:
			d.Applied = append(d.Applied, rec)
		}
	}
	for _, rec := range recs {
		if pending[rec.Name] == rec {
			d.PendingTransfers = append(d.PendingTransfers, rec)
		}
	}
	return d
}

// PutPayload stores the admitted view itself as its durable payload. When
// SiteViewCorrupt fires, the payload is a copy over a copy of the table with
// one value flipped (size-preserving), so its recomputed checksum no longer
// matches the admit record and recovery quarantines the view.
func (w *WAL) PutPayload(v *views.View) {
	if failed, frac := w.inj.Check(faults.SiteViewCorrupt); failed && v.Table != nil {
		c := *v
		c.Table = v.Table.Clone()
		CorruptTable(c.Table, frac)
		v = &c
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payloads[v.Name] = v
}

// Payload fetches the durable copy of a view by name.
func (w *WAL) Payload(name string) (*views.View, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.payloads[name]
	return v, ok
}

// CorruptTable flips one value in the table, chosen by frac, without
// changing its encoded size (so byte accounting stays intact and only the
// checksum betrays the damage): the one model of silent damage, applied by
// SiteViewCorrupt to a durable payload here and by SiteViewRot to a live
// view in multistore, each to a Table.Clone nothing else holds. Tables
// with no mutable value are left unchanged.
func CorruptTable(t *storage.Table, frac float64) {
	if t == nil {
		return
	}
	var cells []*storage.Value
	for _, row := range t.Rows {
		for c := range row {
			cells = append(cells, &row[c])
		}
	}
	start := min(int(frac*float64(len(cells))), len(cells)-1)
	for i := range cells {
		switch v := cells[(start+i)%len(cells)]; v.Kind {
		case storage.KindInt:
			v.I++
			return
		case storage.KindFloat:
			v.F += 1
			return
		case storage.KindBool:
			v.I = 1 - v.I
			return
		case storage.KindString:
			if len(v.S) > 0 {
				b := []byte(v.S)
				b[0] ^= 0x01
				v.S = string(b)
				return
			}
		}
	}
}
