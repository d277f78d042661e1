// Package durability is the crash-restart plane of the multistore system:
// an append-only write-ahead log of every catalog and design mutation, plus
// periodic checkpoints of full system state. The multistore journals view
// admissions and evictions (for both Vh and Vd), reorganization begin and
// commit, the transfer temp-space lifecycle, query completions, and log
// appends whose maintenance job ran; Recover replays the log over the last
// checkpoint to rebuild a System after a simulated process kill.
//
// The WAL is a byte buffer with the framing of an on-disk log — length
// prefix, payload, trailing FNV-64a frame checksum — so a torn tail (a
// crash mid-append, injected at faults.SiteWALWrite) is detected exactly
// the way a real recovery would detect it: the frame fails to parse or its
// checksum mismatches, and replay stops there, discarding the tail.
package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Kind enumerates the WAL record kinds.
type Kind uint8

const (
	// KindViewAdmit records a view entering a store's design. The durable
	// view payload is stored in the WAL's payload space under Name.
	KindViewAdmit Kind = iota + 1
	// KindViewEvict records a view leaving a store's design.
	KindViewEvict
	// KindQueryDone records a completed query (Seq, SQL) so replay can
	// rebuild the sliding workload window and sequence counter.
	KindQueryDone
	// KindReorgBegin opens a reorganization window. A begin without a
	// matching commit is an in-flight reorg that recovery rolls back.
	KindReorgBegin
	// KindReorgCommit closes a reorganization window and carries its
	// outcome statistics.
	KindReorgCommit
	// KindReorgAbort closes a reorganization window that will never commit
	// although the process lives on: multistore's reorg writes it when
	// tuning fails after the begin was journaled.
	KindReorgAbort
	// KindTransferBegin opens a working-set transfer into DW temp space,
	// carrying the staged bytes and their content checksum.
	KindTransferBegin
	// KindTransferCommit marks the transfer's temp load as committed.
	KindTransferCommit
	// KindTransferAbort marks the transfer as failed and rolled back.
	KindTransferAbort
	// KindRealize records MS-OFF's realization of its fixed design after a
	// query: moves charged to TUNE outside any reorganization, with the
	// outcome fields of KindReorgCommit. It follows the query's KindQueryDone.
	KindRealize
	// KindAppend records an append to the base log Name whose HV job
	// maintained views over it: the job's simulated time, in HVSeconds,
	// which replay books. The maintained views are journaled as admits
	// before it.
	KindAppend

	kindEnd
)

var kindNames = map[Kind]string{
	KindViewAdmit:      "view-admit",
	KindViewEvict:      "view-evict",
	KindQueryDone:      "query-done",
	KindReorgBegin:     "reorg-begin",
	KindReorgCommit:    "reorg-commit",
	KindReorgAbort:     "reorg-abort",
	KindTransferBegin:  "transfer-begin",
	KindTransferCommit: "transfer-commit",
	KindTransferAbort:  "transfer-abort",
	KindRealize:        "realize",
	KindAppend:         "append",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Store tags which store a view record applies to.
const (
	StoreNone byte = 0
	StoreHV   byte = 'H'
	StoreDW   byte = 'D'
)

// Record is one WAL entry. A single struct covers every kind; unused
// fields stay zero and cost two bytes each on the wire.
type Record struct {
	Kind  Kind
	Store byte
	// Name identifies the object: view name, transfer temp name, or log
	// name, depending on Kind.
	Name string
	// SQL is the query text for KindQueryDone.
	SQL string
	// Seq is the workload sequence number the record belongs to.
	Seq int64
	// Bytes is the object's logical size (view admit, transfer begin).
	Bytes int64
	// Checksum is the FNV-64a content fingerprint of the object.
	Checksum uint64
	// Reorganization outcome statistics (KindReorgCommit, KindRealize).
	MovedToDW     int64
	MovedToHV     int64
	Dropped       int64
	FailedMoves   int64
	RefundedBytes int64
	// Timing carried by KindQueryDone (the query's TTI contribution, so
	// replay reconstructs the breakdown), KindReorgCommit/KindRealize
	// (move time in Seconds, recovery time in RecoverySeconds) and
	// KindAppend (the maintenance job in HVSeconds).
	Seconds         float64
	RecoverySeconds float64
	HVSeconds       float64
	TransferSeconds float64
	DWSeconds       float64
	// Retries is the injected failures survived (KindQueryDone: by the
	// query; KindReorgCommit, KindRealize: by the moves); Flags is KindQueryDone's
	// route bitmask (see FlagFellBack and friends).
	Retries int64
	Flags   uint64
}

// Flags bits for KindQueryDone records.
const (
	FlagFellBack uint64 = 1 << iota
	FlagDegraded
	FlagHVOnly
	FlagBypassedHV
)

// ErrTorn marks a WAL tail that fails to parse: a torn or corrupted frame.
// Replay stops there; it is not a recovery failure.
var ErrTorn = errors.New("durability: torn WAL tail")

// encode appends the record's frame to dst: uvarint payload length, the
// payload, and an 8-byte FNV-64a checksum of the payload.
func (r *Record) encode(dst []byte) []byte {
	payload := r.encodePayload(nil)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	h := fnv.New64a()
	h.Write(payload)
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

func (r *Record) encodePayload(dst []byte) []byte {
	dst = append(dst, byte(r.Kind), r.Store)
	dst = appendString(dst, r.Name)
	dst = appendString(dst, r.SQL)
	dst = binary.AppendVarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.Bytes)
	dst = binary.LittleEndian.AppendUint64(dst, r.Checksum)
	dst = binary.AppendVarint(dst, r.MovedToDW)
	dst = binary.AppendVarint(dst, r.MovedToHV)
	dst = binary.AppendVarint(dst, r.Dropped)
	dst = binary.AppendVarint(dst, r.FailedMoves)
	dst = binary.AppendVarint(dst, r.RefundedBytes)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Seconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RecoverySeconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.HVSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.TransferSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.DWSeconds))
	dst = binary.AppendVarint(dst, r.Retries)
	dst = binary.AppendUvarint(dst, r.Flags)
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeFrame parses one frame starting at buf[off]. It returns the decoded
// record and the offset just past the frame. Any structural damage — a
// length that overruns the buffer, a checksum mismatch, an invalid payload
// — yields ErrTorn; decodeFrame never panics on arbitrary bytes.
func decodeFrame(buf []byte, off int) (*Record, int, error) {
	if off < 0 || off >= len(buf) {
		return nil, off, ErrTorn
	}
	plen, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, off, ErrTorn
	}
	start := off + n
	// Bound before converting: a huge uvarint must not overflow int.
	if plen > uint64(len(buf)) || start+int(plen)+8 > len(buf) {
		return nil, off, ErrTorn
	}
	payload := buf[start : start+int(plen)]
	sumOff := start + int(plen)
	want := binary.LittleEndian.Uint64(buf[sumOff : sumOff+8])
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != want {
		return nil, off, ErrTorn
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return nil, off, ErrTorn
	}
	return rec, sumOff + 8, nil
}

func decodePayload(p []byte) (*Record, error) {
	d := &decoder{buf: p}
	r := &Record{}
	r.Kind = Kind(d.byte())
	r.Store = d.byte()
	r.Name = d.string()
	r.SQL = d.string()
	r.Seq = d.varint()
	r.Bytes = d.varint()
	r.Checksum = d.uint64()
	r.MovedToDW = d.varint()
	r.MovedToHV = d.varint()
	r.Dropped = d.varint()
	r.FailedMoves = d.varint()
	r.RefundedBytes = d.varint()
	r.Seconds = math.Float64frombits(d.uint64())
	r.RecoverySeconds = math.Float64frombits(d.uint64())
	r.HVSeconds = math.Float64frombits(d.uint64())
	r.TransferSeconds = math.Float64frombits(d.uint64())
	r.DWSeconds = math.Float64frombits(d.uint64())
	r.Retries = d.varint()
	r.Flags = d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(p) {
		return nil, fmt.Errorf("durability: %d trailing payload bytes", len(p)-d.off)
	}
	if r.Kind == 0 || r.Kind >= kindEnd {
		return nil, fmt.Errorf("durability: invalid record kind %d", r.Kind)
	}
	return r, nil
}

// decoder is a bounds-checked cursor over a payload; the first error
// sticks and every later read returns zero values.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uint64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) || d.off+int(n) > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("durability: truncated payload at offset %d", d.off)
	}
}
