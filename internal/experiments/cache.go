// Cache soak: the cross-query reuse plane under a repeated concurrent
// workload. Two identically configured MS-MISO systems serve the same
// sessions×rounds submission schedule through the serving frontend — one
// with the reuse plane disabled (every query executes cold), one with it
// enabled (repeats hit the semantic result cache, concurrent identical
// queries piggyback on the leader's flight). The checks require the
// throughput gain, a nonzero hit rate, every reuse-served answer
// digest-identical to the cold system's, and the drain-barrier
// invalidation. misobench -mode cache -out <dir> writes BENCH_cache.json.
package experiments

import (
	"fmt"
	"math/rand"

	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// cacheRounds is how many full workload passes each session submits.
const cacheRounds = 3

// cacheRows is the reuse-off twin and the reuse-on row, 4 sessions by
// default (-sessions). All sessions walk the workload in the same order,
// so identical queries overlap and the single-flight path is exercised
// alongside the cache. Automatic reorganization is off on both so the two
// run the same schedule against a stable design; the reuse-on row then
// reorganizes through the drain barrier, whose hook clears the cache.
func cacheRows(c Config, sh Shape) (layout, []row, error) {
	sessions := orDefault(sh.Sessions, 4)
	sqls := workload.SQLs()
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
	on := twin("reuse-on", true)
	on.twin = "reuse-off"
	on.phases = append(on.phases, phase{name: "reorg", reorg: true})
	on.checks = append(on.checks, check{"speedup", func(o *Outcome) (bool, string) {
		off, in := o.twin.Phases[0], o.Phases[0]
		x := off.Seconds / in.Seconds
		return x >= 2, fmt.Sprintf("reuse off %.2fs (%.0f q/s), on %.2fs (%.0f q/s): %.2fx (need >= 2x)",
			off.Seconds, off.GoodputQPS, in.Seconds, in.GoodputQPS, x)
	}}, check{"hit-rate", func(o *Outcome) (bool, string) {
		m := o.System
		rate := float64(m.CacheHits) / float64(max(1, m.CacheHits+m.CacheMisses))
		return rate > 0, fmt.Sprintf("%d hits / %d misses (hit rate %.2f), piggybacked %d (dedup %.2f), subplan hits %d",
			m.CacheHits, m.CacheMisses, rate, m.Piggybacked, float64(m.Piggybacked)/float64(o.Phases[0].Submitted), m.SubplanHits)
	}}, check{"digests-match", func(o *Outcome) (bool, string) {
		return o.AnswersMatch, fmt.Sprintf("every answer of both rows equals the first one seen for its SQL: %v", o.AnswersMatch)
	}}, check{"reorg-cleared", func(o *Outcome) (bool, string) {
		before, after := o.Phases[0].CacheEntries, o.Phases[1].CacheEntries
		return before > 0 && after == 0, fmt.Sprintf("drain-barrier reorganization took the cache from %d to %d entries", before, after)
	}})
	return layout{title: fmt.Sprintf("cache soak (%s)", c.host())}, []row{twin("reuse-off", false), on}, nil
}
