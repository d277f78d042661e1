package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"miso/internal/multistore"
)

// span is one timed call into a layer. Spans of one request share query;
// parent is the id of the span that caused this one, 0 for a root.
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(query, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Query: query, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// since returns the spans recorded from index from on, for a round to read
// back its own.
func (r *recorder) since(from int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[from:]...)
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(r.since(0))
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes maps each span's id to its duration minus the part of its
// interval that its children cover; overlapping children count once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanKey carries the calling span through serve.Server to the backend.
type spanKey struct{}

type spanRef struct{ query, id int }

func withSpan(ctx context.Context, query, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{query, id})
}

// timedBackend is the serve.Backend decorator of the traced run: it times
// the two calls the server makes into multistore.
type timedBackend struct {
	sys *multistore.System
	rec *recorder
	// reorgParent is the caller's span for the next Reorganize, which has
	// no context to carry it. The harness sets it on the goroutine that then
	// calls Reorganize, one reorganization at a time.
	reorgParent spanRef
}

func (b *timedBackend) RunContext(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := b.rec.begin(ref.query, ref.id, "multistore.run")
	defer b.rec.end(id)
	return b.sys.RunContext(ctx, sql)
}

func (b *timedBackend) RunDegraded(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	return b.sys.RunDegraded(ctx, sql)
}

func (b *timedBackend) Reorganize() error {
	id := b.rec.begin(b.reorgParent.query, b.reorgParent.id, "core.reorganize")
	defer b.rec.end(id)
	return b.sys.Reorganize()
}
