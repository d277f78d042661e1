// Cache soak: the cross-query reuse plane under a repeated concurrent
// workload. Two identically configured MS-MISO systems serve the same
// sessions×rounds submission schedule through the serving frontend — one
// with the reuse plane disabled (every query executes cold), one with it
// enabled (repeats are answered by result views, concurrent ones
// included). The checks require the throughput gain, each distinct
// statement executed once and every other submission answered by the
// cache, every reuse-served answer digest-identical to the cold system's,
// and the reorganization's clear of the result views. misobench -mode cache -out <dir>
// writes BENCH_cache.json.
package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// cacheRounds is how many full workload passes each session submits.
const cacheRounds = 3

// cacheRows is the reuse-off twin and the reuse-on row, 4 sessions by
// default (-sessions). All sessions walk the workload in the same order,
// so identical queries arrive together; with reuse on a statement's copies
// take turns, so each overlapping repeat is a cache hit too. The reuse-off
// twin serves through one worker: its baseline is cold execution one query
// at a time, so the speedup is what reuse saves, not what two rows
// computing side by side to different degrees would add to it. Automatic
// reorganization is off on both so the two run the same schedule against a
// stable design; the reuse-on row then reorganizes through the drain
// barrier, and the reorganization clears the result views first thing.
func cacheRows(c Config, sh Shape) (layout, []row, error) {
	sessions := orDefault(sh.Sessions, 4)
	sqls := workload.SQLs()
	sorted := slices.Clone(sqls)
	slices.Sort(sorted)
	distinct := len(slices.Compact(sorted))
	soak := phase{name: "soak", closed: closedLoop{clients: sessions, count: cacheRounds * len(sqls), next: func(_, i int, _ *rand.Rand) request {
		return request{sql: sqls[i%len(sqls)]}
	}}}
	twin := func(name string, enabled bool) row {
		return row{
			name: name, desc: fmt.Sprintf("%d sessions x %d rounds, reuse plane enabled: %v", sessions, cacheRounds, enabled),
			mutate: func(mc *multistore.Config) {
				mc.ReorgEvery = 0
				mc.Reuse = multistore.ReuseConfig{Enabled: enabled}
			},
			serve: serve.Config{Workers: 4}, phases: []phase{soak}, pin: true,
			checks: []check{{"all-served", func(o *Outcome) (bool, string) {
				p := o.Phases[0]
				return p.Served == p.Submitted, fmt.Sprintf("%d of %d submissions served", p.Served, p.Submitted)
			}}},
		}
	}
	off := twin("reuse-off", false)
	off.desc += ", one worker"
	off.serve = serve.Config{Workers: 1, QueueDepth: sessions}
	on := twin("reuse-on", true)
	on.twin = "reuse-off"
	on.phases = append(on.phases, phase{name: "reorg", reorg: true})
	on.checks = append(on.checks, check{"speedup", func(o *Outcome) (bool, string) {
		off, in := o.twin.Phases[0], o.Phases[0]
		x := off.Seconds / in.Seconds
		return x >= 2, fmt.Sprintf("reuse off %.2fs (%.0f q/s), on %.2fs (%.0f q/s): %.2fx (need >= 2x)",
			off.Seconds, off.GoodputQPS, in.Seconds, in.GoodputQPS, x)
	}}, check{"each-statement-once", func(o *Outcome) (bool, string) {
		m, submitted := o.System, o.Phases[0].Submitted
		return m.CacheMisses == distinct && m.CacheHits == submitted-distinct,
			fmt.Sprintf("%d misses for %d distinct statements, %d hits of %d submissions (need %d), subplan hits %d",
				m.CacheMisses, distinct, m.CacheHits, submitted, submitted-distinct, m.SubplanHits)
	}}, check{"digests-match", func(o *Outcome) (bool, string) {
		return o.AnswersMatch, fmt.Sprintf("every answer of both rows equals the first one seen for its SQL: %v", o.AnswersMatch)
	}}, check{"reorg-cleared", func(o *Outcome) (bool, string) {
		before, after := o.Phases[0].CacheEntries, o.Phases[1].CacheEntries
		return before > 0 && after == 0, fmt.Sprintf("drain-barrier reorganization took the cache from %d to %d entries", before, after)
	}})
	return layout{title: fmt.Sprintf("cache soak (%s)", c.host())}, []row{off, on}, nil
}
