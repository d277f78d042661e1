package main

import (
	"time"

	"miso/internal/durability"
)

// endToEndValues turns one untraced round into the end-to-end metrics.
// Wall-clock and CPU times are scaled to nominal machine speed (see
// calibrate); counts of bytes and simulated seconds are as measured.
func endToEndValues(rd *round) map[string]float64 {
	lat := newDist(rd.latMs)
	n := float64(rd.answered)
	speed := rd.speed()
	return map[string]float64{
		"setup_s":            rd.setup.Seconds() / speed,
		"queries_per_s":      n / rd.m.wall.Seconds() * speed,
		"query_p50_ms":       lat.p(50) / speed,
		"query_p95_ms":       lat.p(95) / speed,
		"cpu_ms_per_query":   ms(rd.m.cpu) / n / speed,
		"alloc_kb_per_query": float64(rd.m.alloc) / 1e3 / n,
		"heap_after_mb":      rd.heapMB,
		"tti_sim_s":          rd.tti32,
	}
}

// durations collects, per span name, the spans' durations in milliseconds.
func durations(spans []span) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.ms())
	}
	return by
}

// selfDurations is durations over self times.
func selfDurations(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e6)
	}
	return by
}

// perLayerValues turns a traced run's rounds into the per-layer metrics:
// counts, timed backend calls, the server's waits and the program's own
// counters, from the counted round; the replayed layer calls from the
// probed round. single is the one-client round of a served workload, nil
// otherwise.
func perLayerValues(w workload, counts, single, probes *round) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	n := float64(counts.answered)
	dur, self := durations(counts.spans), selfDurations(counts.spans)

	run := newDist(dur["multistore.run"])
	v["multistore.run_ms_p50"], v["multistore.run_ms_p95"] = run.p(50), run.p(95)
	v["core.reorg_ms_p50"] = median(dur["core.reorganize"])
	v["reorg_p50_ms"] = median(counts.reorgMs)
	v["append_p50_ms"] = median(counts.appendMs)
	v["multistore.append_dropped_mean"] = mean(counts.dropped)
	if w.served {
		wait := newDist(self["serve.do"])
		v["serve.wait_ms_p50"], v["serve.wait_ms_p95"] = wait.p(50), wait.p(95)
		v["serve.barrier_ms_p50"] = median(self["serve.reorganize"])
		v["serve.shed"] = float64(counts.srv.Sheds)
		v["multistore.scaleup_2c"] = (n / counts.m.wall.Seconds()) / (float64(single.answered) / single.m.wall.Seconds())
	}

	// The program's own counters, over the system the counted round ended
	// with; simulated seconds are per 32 answered queries, like tti_sim_s.
	sys := counts.sys
	m := sys.Metrics()
	per32 := 32 / float64(m.Queries)
	reports := sys.Reports()
	var newViews, transferBytes, split, bypass float64
	for _, r := range reports {
		newViews += float64(r.NewViews)
		transferBytes += float64(r.TransferBytes)
		if r.BypassedHV {
			bypass++
		}
		if !r.HVOnly && !r.CacheHit && !r.Piggybacked {
			split++
		}
	}
	nr := float64(len(reports))
	v["multistore.reports_end"] = nr
	v["hv.sim_s"] = m.HVExe * per32
	v["hv.new_views_mean"] = newViews / nr
	v["hv.views_end"] = float64(sys.HV().Views.Len())
	v["hv.view_mb_end"] = float64(sys.HV().Views.TotalBytes()) / 1e6
	v["dw.sim_s"] = m.DWExe * per32
	v["dw.views_end"] = float64(sys.DW().Views.Len())
	v["dw.view_mb_end"] = float64(sys.DW().Views.TotalBytes()) / 1e6
	v["transfer.sim_s"] = m.Transfer * per32
	v["transfer.mb_per_query"] = transferBytes / 1e6 / nr
	v["optimizer.split_frac"] = split / nr
	v["optimizer.bypass_hv_frac"] = bypass / nr
	v["core.reorgs"] = float64(m.Reorgs)
	v["core.sim_tune_s"] = m.Tune * per32
	for _, rec := range sys.ReorgLog() {
		v["transfer.moves"] += float64(rec.MovedToDW + rec.MovedToHV)
		v["core.moved_mb_total"] += float64(rec.Bytes) / 1e6
	}
	v["mqo.hit_frac"] = float64(m.CacheHits) / float64(m.Queries)
	v["mqo.piggyback_frac"] = float64(m.Piggybacked) / float64(m.Queries)
	v["mqo.subplan_hits"] = float64(m.SubplanHits)
	v["mqo.entries_end"] = float64(sys.ReuseStats().Cache.Entries)
	if d := sys.Durability(); d != nil {
		v["durability.wal_records"] = float64(d.WAL().Records())
		v["durability.checkpoints"] = float64(d.Checkpoints())
		v["durability.wal_append_us_p50"] = walAppendMicros()
	}

	var execMs float64
	for _, op := range counts.exec.Breakdown() {
		opMs := ms(op.Time)
		execMs += opMs
		if _, ok := v["exec."+op.Op+"_ms"]; ok {
			v["exec."+op.Op+"_ms"] = opMs / n
		}
		v["exec.rows_in_per_query"] += float64(op.RowsIn) / n
	}
	v["exec.share"] = execMs / sum(dur["multistore.run"])

	// The replayed calls. A layer's share is its replays' time over the
	// probed round's own multistore.run time; what no replay accounts for is
	// multistore's self time: lock wait, booking, view capture, costing.
	pdur := durations(probes.spans)
	v["sqlparser.parse_us_p50"] = 1e3 * median(pdur["sqlparser.parse"])
	v["logical.build_us_p50"] = 1e3 * median(pdur["logical.build"])
	v["mqo.fingerprint_us_p50"] = 1e3 * median(pdur["mqo.fingerprint"])
	v["optimizer.choose_ms_p50"] = median(pdur["optimizer.choose"])
	hvc := newDist(pdur["hv.compute"])
	v["hv.compute_ms_p50"], v["hv.compute_ms_p95"] = hvc.p(50), hvc.p(95)
	v["storage.checksum_ms_p50"] = median(pdur["storage.checksum"])
	v["dw.execute_ms_p50"] = median(pdur["dw.execute"])
	v["dw.probe_skipped"] = float64(probes.dwSkip)

	var runTotal, selfTotal time.Duration
	var nodes, plans float64
	var selfMs []float64
	layerTotal := map[string]time.Duration{}
	for _, o := range probes.probes {
		runTotal += o.run
		nodes += float64(o.nodes)
		plans += float64(o.plans)
		self := o.run
		for layer, d := range o.layer {
			layerTotal[layer] += d
			self -= d
		}
		self = max(self, 0)
		selfTotal += self
		selfMs = append(selfMs, ms(self))
	}
	if np := float64(len(probes.probes)); np > 0 {
		v["logical.plan_nodes_mean"] = nodes / np
		v["optimizer.plans_mean"] = plans / np
		for _, layer := range []string{"sqlparser", "logical", "mqo", "optimizer", "hv", "storage", "dw"} {
			v[layer+".share"] = float64(layerTotal[layer]) / float64(runTotal)
		}
		v["multistore.self_share"] = float64(selfTotal) / float64(runTotal)
		v["multistore.self_ms_p50"] = median(selfMs)
	}

	// Overhead compares like with like: one goroutine against one client.
	base := counts
	if single != nil {
		base = single
	}
	v["machine.calib_ms"] = median(append(append([]float64(nil), counts.calibMs...), probes.calibMs...))
	v["trace.overhead_frac"] = 1 - (float64(probes.answered)/probes.m.wall.Seconds())/(float64(base.answered)/base.m.wall.Seconds())
	return v
}

// walAppendMicros is the median time to append one query-done record to a
// standalone WAL.
func walAppendMicros() float64 {
	wal := durability.NewWAL(nil)
	rec := &durability.Record{
		Kind: durability.KindQueryDone, SQL: "SELECT user_id, COUNT(*) FROM tweets GROUP BY user_id",
		Seq: 1, Seconds: 1234.5, HVSeconds: 1000, TransferSeconds: 100, DWSeconds: 134.5,
	}
	us := make([]float64, 2000)
	for i := range us {
		t := time.Now()
		if err := wal.Append(rec); err != nil {
			panic(err) // a WAL without an injector cannot tear
		}
		us[i] = float64(time.Since(t)) / 1e3
	}
	return median(us)
}
