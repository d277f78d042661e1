package multistore

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"miso/internal/durability"
	"miso/internal/dw"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/storage"
	"miso/internal/transfer"
	"miso/internal/views"
)

// query is one submitted query on its way through the system: everything
// that belongs to this query and to no other. Nothing per-query lives in
// System or in the stores, so where s.mu is taken is a decision about the
// shared state only.
type query struct {
	// ctx is the caller's context carrying the memory ledger
	// (govern.WithLedger): the stores read it from the context they
	// execute under, so work done under any other context — a benchmark
	// probe, a reorg phase — never lands on this query's account.
	ctx   context.Context
	entry history.Entry
	// rep is the report being filled. Every step sums what it paid into
	// it; charge adds its totals to Metrics once, at the exit.
	rep *QueryReport
	// led is the ledger ctx carries, kept to release what the query still
	// holds when it ends (nil when no memory limit is configured).
	led *govern.Ledger
}

// answer records t as the query's result.
func (q *query) answer(t *storage.Table) {
	q.rep.ResultRows = t.NumRows()
	q.rep.Result = t
}

// submit is the one query path. Every entry point runs the same four
// steps — prologue (begin), HV step (execHV), cut migration (migrateCut),
// booking (charge + bookLocked) — and differs only in the route it takes between
// prologue and booking: the degraded route runs whole in HV, a cache hit
// books the table a result view holds, everything else runs the variant.
//
// Plan building reads only construction-time catalog state (schemas,
// names), never the mutable log content, so the plan is built before the
// lock — and once per statement text: the builder hands every repeat of a
// text the plan it built first (shared, since a built plan is immutable),
// so a cache hit neither parses nor builds. The built plan is already
// normalized, so its root's id is the key of its result view. Queries run
// one at a time under s.mu, so a repeat that arrives while its first copy
// executes waits for the lock and then hits the result view that copy
// admitted.
func (s *System) submit(ctx context.Context, sql string, degraded bool) (*QueryReport, error) {
	plan, buildErr := s.builder.BuildSQL(sql)

	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.begin(ctx, sql, plan, buildErr)
	if err != nil {
		return nil, err
	}
	defer q.led.ReleaseAll()

	var ran bool
	switch {
	case degraded:
		q.rep.Degraded = true
		err = s.runInHV(q, optimizer.RewriteWithViews(plan, s.hv.Views))
	default:
		if s.results != nil {
			if t, ok := s.heldResult(plan, q.entry.Seq); ok {
				q.rep.CacheHit = true
				q.answer(t)
				break
			}
			s.metrics.CacheMisses++
		}
		ran = true
		err = s.runVariant(q)
	}
	if err != nil {
		return nil, err
	}

	s.charge(q.rep)
	var settled *durability.Record
	if ran {
		// The variant's post-step follows the charge (MS-OFF's trim adds
		// its own recovery time after the query's) and precedes the
		// booking, which journals the design it leaves behind and then the
		// post-step's record, so replay charges in the same order.
		settled = s.settleVariant()
		if s.results != nil && q.rep.Result != nil {
			s.admitResult(plan, q.rep.Result, q.entry.Seq)
		}
	}
	return s.bookLocked(q, settled)
}

// begin is the prologue every query passes, in an order the fault plane
// fixes: injector draws are consumed in program order, so the steps must
// not move across the bit-rot draw or the serve-crash draw. plan and
// buildErr are what BuildSQL returned for the query's SQL; a build error
// surfaces only after the rot draw — an unparsable query is still an
// operation, and it moves the injector exactly as far as a valid one's
// prologue does. A query whose context is already done returns before
// anything is drawn or charged. Callers hold s.mu.
func (s *System) begin(ctx context.Context, sql string, plan *logical.Node, buildErr error) (*query, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("multistore: query not started: %w", err)
	}
	// Nil when unconfigured: governance then costs nothing.
	led := govern.NewLedger(s.cfg.MemLimitBytes)
	if s.onLedger != nil {
		s.onLedger(led)
	}
	ctx = govern.WithLedger(ctx, led)
	s.beginOp()
	s.maybeRot()
	if buildErr != nil {
		return nil, buildErr
	}
	q := &query{
		ctx:   ctx,
		entry: history.Entry{Seq: s.seq, SQL: sql, Plan: plan},
		rep:   &QueryReport{Seq: s.seq, SQL: sql},
		led:   led,
	}
	if failed, _ := s.inj.Check(faults.SiteCrashServe); failed {
		return nil, fmt.Errorf("multistore: query %d: %w", s.seq, faults.Crash(faults.SiteCrashServe))
	}
	return q, nil
}

// charge adds a finished query's report to the TTI breakdown and the
// counters — the one place a query's totals enter Metrics. Steps sum into
// the report and the report is added here, in that order: the float
// additions stay the ones every digest and simulated second was recorded
// with.
func (s *System) charge(rep *QueryReport) {
	m := &s.metrics
	m.HVExe += rep.HVSeconds
	m.Transfer += rep.TransferSeconds
	m.DWExe += rep.DWSeconds
	m.Recovery += rep.RecoverySeconds
	m.Retries += rep.Retries
	m.SubplanHits += rep.SubplanHits
	m.Fallbacks += b2i(rep.FellBackToHV)
	m.Degraded += b2i(rep.Degraded)
	m.CacheHits += b2i(rep.CacheHit)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// book commits a completed query into the window, sequence, query count
// and report log — the one place a query enters them, for the live path
// and for journal replay alike. Callers hold s.mu.
func (s *System) book(q *query) {
	s.window.Add(q.entry)
	s.seq = q.entry.Seq + 1
	s.metrics.Queries++
	s.reports.add(q.rep)
}

// bookLocked books a completed query and journals its completion, then
// settled (the variant's post-step record, nil for none). Callers hold s.mu.
func (s *System) bookLocked(q *query, settled *durability.Record) (*QueryReport, error) {
	s.book(q)
	if err := s.endOp(queryDoneRecord(q.rep), settled); err != nil {
		// The WAL append tore: the process is considered dead and the
		// query's completion never became durable.
		return nil, err
	}
	return q.rep, nil
}

// isCtxErr reports whether err stems from context cancellation or an
// expired deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// isAbortErr reports whether err is a governed per-query abort — context
// cancellation/deadline, a memory-budget violation, or a contained worker
// panic — as opposed to a store or plan failure. Governed aborts are booked
// by abandon rather than wrapped as execution errors.
func isAbortErr(err error) bool {
	return isCtxErr(err) || errors.Is(err, govern.ErrMemLimit) || errors.Is(err, govern.ErrInternal)
}

// abandon books a query that died mid-plan to a governed abort: every
// simulated second it had already accrued (completed HV cuts, transfers,
// DW work, recovery) is charged to RECOVERY — work done and thrown away —
// and staged temp tables are discarded. The cause classifies the abort:
// context errors count as Canceled, memory-budget violations as
// MemAborted, contained worker panics as PanicsContained. Returns a typed
// error wrapping the cause.
func (s *System) abandon(q *query, cause error) error {
	wasted := q.rep.Total()
	s.metrics.Recovery += wasted
	s.metrics.Retries += q.rep.Retries
	verb := "abandoned mid-plan"
	switch {
	case errors.Is(cause, govern.ErrMemLimit):
		s.metrics.MemAborted++
		verb = "aborted over memory budget"
	case errors.Is(cause, govern.ErrInternal):
		s.metrics.PanicsContained++
		verb = "failed by a contained panic"
	default:
		s.metrics.Canceled++
	}
	s.dw.ClearTemp()
	return fmt.Errorf("multistore: query %d %s (%.1fs charged to recovery): %w",
		q.entry.Seq, verb, wasted, cause)
}

// failedIn turns a store's execution error into the query's: a governed
// abort abandons the query, anything else is the store's failure.
func (s *System) failedIn(q *query, store string, err error) error {
	if isAbortErr(err) {
		return s.abandon(q, err)
	}
	return fmt.Errorf("multistore: query %d in %s: %w", q.entry.Seq, store, err)
}

// execHV is the one HV step: run plan in HV under the query's context and
// sum what it paid into the report. What the execution means to the query
// (its whole answer, one cut's working set, a fallback whose time is a
// penalty) is the caller's lines around it.
func (s *System) execHV(q *query, plan *logical.Node) (*hv.Result, error) {
	res, err := s.hv.ExecuteContext(q.ctx, plan, q.entry.Seq)
	if err != nil {
		return nil, s.failedIn(q, "HV", err)
	}
	rep := q.rep
	rep.HVSeconds += res.Seconds
	rep.RecoverySeconds += res.RecoverySeconds
	rep.Retries += res.Retries
	rep.HVOps += countOps(plan)
	rep.NewViews += len(res.NewViews)
	rep.UsedViews = append(rep.UsedViews, s.markUsedViews(plan, q.entry.Seq)...)
	return res, nil
}

// runInHV answers the whole query from one HV execution of plan.
func (s *System) runInHV(q *query, plan *logical.Node) error {
	res, err := s.execHV(q, plan)
	if err != nil {
		return err
	}
	q.rep.HVOnly = true
	q.answer(res.Table)
	return nil
}

// runSplit executes the optimizer's chosen plan over design d: each cut
// runs in HV (or comes from a result view), its working set migrates
// into DW temp space, and the remainder runs in DW; a mid-flight failure
// of the transfer or of the DW side degrades to fallbackHV. Migrated
// working sets live in temp space for the duration of the query only; HV
// by-products accumulate in the store and the variants that do not retain
// them reset or trim the HV view set in settleVariant. retain, when set,
// sees every working set that reached DW (MS-LRU's passive retention).
func (s *System) runSplit(q *query, d optimizer.Design, retain func(q *query, cut *logical.Node, ws *storage.Table)) error {
	mp, err := s.choose(q.entry.Plan, d)
	if err != nil {
		return err
	}
	if mp.HVOnly {
		return s.runInHV(q, mp.HVPlan)
	}
	rep := q.rep
	rep.BypassedHV = true
	for _, cut := range mp.Cuts {
		if cut.DWView != nil {
			continue // answered directly from a DW-resident view
		}
		rep.BypassedHV = false
		// Subresult reuse: a cut whose raw subtree a result view answers
		// skips HV execution entirely — the migrated working set is the
		// view's checksum-verified table, at zero HV cost. The migration
		// below still runs: the working set must reach DW temp space
		// either way.
		var ws *storage.Table
		if s.results != nil {
			if t, ok := s.heldResult(cut.Node, q.entry.Seq); ok {
				ws = t
				rep.SubplanHits++
			}
		}
		if ws == nil {
			res, err := s.execHV(q, cut.HVPlan)
			if err != nil {
				return err
			}
			ws = res.Table
			if s.results != nil {
				s.admitResult(cut.Node, ws, q.entry.Seq)
			}
		}
		// Deadline checkpoint before committing to the transfer: an
		// abandoned query must not consume injector draws the sequential
		// path would have used differently.
		if err := q.ctx.Err(); err != nil {
			return s.abandon(q, err)
		}
		cause, err := s.migrateCut(q, cut.TempName, ws)
		if err != nil {
			return err
		}
		if cause != nil {
			return s.fallbackHV(q, cause)
		}
		if retain != nil {
			retain(q, cut.Node, ws)
		}
	}

	if err := q.ctx.Err(); err != nil {
		return s.abandon(q, err)
	}
	dwRes, err := s.dw.ExecuteContext(q.ctx, mp.DWPart)
	if err != nil {
		return s.failedIn(q, "DW", err)
	}
	// Replay injected DW-side failures against the query's report.
	if err := s.retry.Replay(q.ctx, s.inj, faults.SiteDWQuery, "dw query", dwRes.Seconds, &rep.Retries, &rep.RecoverySeconds); err != nil {
		// DW gave out mid-query: degrade to HV.
		return s.fallbackHV(q, err)
	}
	s.answerFromDW(q, mp.DWPart, dwRes)
	s.dw.ClearTemp()
	return nil
}

// planVersions is the version tuple of everything Optimizer.Choose reads
// under the system's design: both view sets, the estimator, the count of
// log appends (which the estimator's base sizes follow) and the result
// views the reuse probe asks.
type planVersions struct{ hv, dw, est, logs, results uint64 }

// versions reads the tuple. Callers hold s.mu.
func (s *System) versions() planVersions {
	v := planVersions{hv: s.hv.Views.Version(), dw: s.dw.Views.Version(), est: s.est.Version(), logs: s.appends}
	if s.results != nil {
		v.results = s.results.Version()
	}
	return v
}

// resultMembers lists the result views; none when the plane is disabled.
func (s *System) resultMembers() []*views.View {
	if s.results == nil {
		return nil
	}
	return s.results.Members()
}

// planEntry is a chosen plan and what its choice read: the tuple, the
// members of both view sets and of the result views, the id of every node
// the estimator may have been asked about — the raw plan's and those of
// every plan EnumeratePlans returned — and, with the reuse plane on, the
// id of every cut the reuse probe was asked about.
type planEntry struct {
	mp              *optimizer.MultiPlan
	ver             planVersions
	hv, dw, results []*views.View
	ids, cuts       []uint64
}

// planCacheCap bounds the plan cache; a full cache is dropped whole.
const planCacheCap = 1024

// planHit, when set, sees every plan-cache hit before choose returns it.
// Tests arm it to hold a hit to a fresh Choose; it is nil otherwise.
var planHit func(s *System, plan *logical.Node, d optimizer.Design, mp *optimizer.MultiPlan)

// choose is Optimizer.Choose behind the plan cache. Choose is a pure
// function of the plan (one pointer per statement text), the design and what
// versions() counts, so a plan chosen under the system's design is handed
// out again while nothing it read has changed. A log append, which moves
// every base size the estimator reads, drops the whole cache; after any
// other move an entry is checked against its own reads (holds). Another design
// (MS-BASIC's empty one) is planned afresh. Callers hold s.mu.
func (s *System) choose(plan *logical.Node, d optimizer.Design) (*optimizer.MultiPlan, error) {
	if d != s.design() {
		return s.opt.Choose(plan, d)
	}
	v := s.versions()
	if v.logs != s.planLogs || len(s.plans) >= planCacheCap {
		clear(s.plans)
		s.planLogs = v.logs
	}
	if e, ok := s.plans[plan]; ok && s.holds(e, plan, v) {
		if planHit != nil {
			planHit(s, plan, d, e.mp)
		}
		return e.mp, nil
	}
	// The members are read after the versions, so an entry never holds
	// members older than its tuple says.
	e := &planEntry{ver: v, hv: d.HV.Members(), dw: d.DW.Members(), results: s.resultMembers()}
	plans := s.opt.EnumeratePlans(plan, d)
	mp, err := optimizer.Cheapest(plans)
	if err != nil {
		return nil, err
	}
	e.mp, e.ids = mp, readIDs(plan, plans)
	if s.results != nil {
		e.cuts = probedCuts(plans)
	}
	s.plans[plan] = e
	return mp, nil
}

// holds reports whether the entry's plan is still the one Choose would pick
// under tuple v, and if so advances the entry to v. Its estimates hold while
// no stat it may have read was stored or dropped; its design holds while no
// view added, removed or replaced since can answer a node of the raw plan,
// the only nodes BestMatch is asked about; its reuse discounts hold while
// the result views hold each cut the probe was asked about as they did.
func (s *System) holds(e *planEntry, plan *logical.Node, v planVersions) bool {
	hv, dw, results := s.hv.Views.Members(), s.dw.Views.Members(), s.resultMembers()
	if e.ver.est != v.est && s.est.ChangedSince(e.ids, e.ver.est) ||
		e.ver.hv != v.hv && viewsMoved(e.hv, hv, plan) || e.ver.dw != v.dw && viewsMoved(e.dw, dw, plan) ||
		e.ver.results != v.results && resultsMoved(e.results, results, e.cuts) {
		return false
	}
	e.ver, e.hv, e.dw, e.results = v, hv, dw, results
	return true
}

// resultsMoved reports whether one of two result-view member lists holds a
// view for one of cuts and the other does not. Result views match on the
// exact tier only, so presence is all the probe reads: a view cleared and
// admitted again answers as it did.
func resultsMoved(old, cur []*views.View, cuts []uint64) bool {
	for _, id := range cuts {
		has := func(v *views.View) bool { return v.ID == id }
		if slices.ContainsFunc(old, has) != slices.ContainsFunc(cur, has) {
			return true
		}
	}
	return false
}

// probedCuts lists, sorted and without repeats, the raw node of every HV
// cut of every plan in plans: what the reuse probe was asked about. A cut
// a DW view answers is never probed.
func probedCuts(plans []*optimizer.MultiPlan) []uint64 {
	var ids []uint64
	for _, p := range plans {
		for _, c := range p.Cuts {
			if c.DWView == nil {
				ids = append(ids, c.Node.ID())
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// viewsMoved walks two name-ordered member lists and reports whether a view
// in one but not the other — a view whose Name, Desc or Table differ counts
// as both — matches a node of plan. A Touch copy differs in nothing it reads.
func viewsMoved(old, cur []*views.View, plan *logical.Node) bool {
	for len(old) > 0 || len(cur) > 0 {
		var gone, added *views.View
		switch {
		case len(cur) == 0 || len(old) > 0 && old[0].Name < cur[0].Name:
			gone, old = old[0], old[1:]
		case len(old) == 0 || cur[0].Name < old[0].Name:
			added, cur = cur[0], cur[1:]
		default:
			if o, c := old[0], cur[0]; o.Desc != c.Desc || o.Table != c.Table {
				gone, added = o, c
			}
			old, cur = old[1:], cur[1:]
		}
		if gone != nil && views.MatchesSome(plan, gone) || added != nil && views.MatchesSome(plan, added) {
			return true
		}
	}
	return false
}

// readIDs lists, sorted and without repeats, the id of every node of the
// raw plan and of every plan in plans — its HV plan, each cut's HV plan and
// its DW part — a superset of the subtrees the choice estimated.
func readIDs(raw *logical.Node, plans []*optimizer.MultiPlan) []uint64 {
	var ids []uint64
	add := func(n *logical.Node) {
		if n != nil {
			n.Walk(func(m *logical.Node) { ids = append(ids, m.ID()) })
		}
	}
	add(raw)
	for _, p := range plans {
		add(p.HVPlan)
		for _, c := range p.Cuts {
			add(c.HVPlan)
		}
		add(p.DWPart)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// migrateCut is the one cut migration: it moves a cut's working set into
// DW temp space under name, journaled as a begin..commit (or begin..abort)
// window. A move that aborts, or whose bytes fail the load-time integrity
// check, has wasted everything it paid; the query then degrades to HV and
// cause says why (err is reserved for what kills the query or the process:
// a torn journal append, the transfer crash site).
func (s *System) migrateCut(q *query, name string, ws *storage.Table) (cause, err error) {
	rep, seq := q.rep, int64(q.entry.Seq)
	bytes := ws.LogicalBytes()
	if s.dur != nil { // only a journaled move pays for the content checksum
		if err := s.journal(&durability.Record{
			Kind: durability.KindTransferBegin, Name: name,
			Seq: seq, Bytes: bytes, Checksum: storage.ChecksumTable(ws),
		}); err != nil {
			return nil, err
		}
	}
	if failed, _ := s.inj.Check(faults.SiteCrashTransfer); failed {
		return nil, fmt.Errorf("multistore: query %d transfer: %w", seq, faults.Crash(faults.SiteCrashTransfer))
	}
	productive, recovery, retries, cause := s.move(q.ctx, bytes, transfer.KindWorkingSet)
	rep.Retries += retries
	if cause == nil {
		// The working set's checksum is verified as DW stages it; injected
		// corruption means the bytes were damaged in flight (ErrCorrupt).
		if failed, _ := s.inj.Check(faults.SiteViewCorrupt); failed {
			cause = faults.Corrupt(name)
		}
	}
	if cause != nil {
		rep.RecoverySeconds += productive + recovery
		return cause, s.journal(&durability.Record{Kind: durability.KindTransferAbort, Name: name, Seq: seq})
	}
	rep.RecoverySeconds += recovery
	rep.TransferBytes += bytes
	rep.TransferSeconds += productive
	s.dw.StageTemp(name, ws)
	return nil, s.journal(&durability.Record{Kind: durability.KindTransferCommit, Name: name, Seq: seq})
}

// answerFromDW records a DW execution of plan as the query's answer.
func (s *System) answerFromDW(q *query, plan *logical.Node, res *dw.Result) {
	q.rep.DWSeconds = res.Seconds
	q.rep.DWOps = countOps(plan)
	q.rep.UsedViews = append(q.rep.UsedViews, s.markUsedViews(plan, q.entry.Seq)...)
	q.answer(res.Table)
}

// move is the one accounting site for data movement: it runs bytes through
// the fault-injected transfer pipeline under ctx and returns what the move
// paid — productive seconds (the whole fault-free breakdown when err is
// nil, the part that finished before the abort otherwise), the recovery
// seconds lost to failures, and the failures drawn. A move that aborts, or
// that its caller then discards (a failed commit draw, damaged bytes), has
// wasted productive + recovery; which counter the seconds land in is the
// caller's.
func (s *System) move(ctx context.Context, bytes int64, kind transfer.Kind) (productive, recovery float64, retries int, err error) {
	mv, err := transfer.MoveContext(ctx, bytes, kind, s.inj, s.retry)
	return mv.Breakdown.Total(), mv.RecoverySeconds, mv.Retries, err
}

// fallbackHV completes a query entirely in HV after its multistore plan
// failed mid-flight (aborted transfer or exhausted DW retries) — the
// graceful-degradation path: HV always holds the base logs, so any query
// can complete there. Time already paid stays in its component; the
// fallback execution itself is the penalty, charged to RECOVERY.
func (s *System) fallbackHV(q *query, cause error) error {
	s.dw.ClearTemp()
	plan := optimizer.RewriteWithViews(q.entry.Plan, s.hv.Views)
	rep := q.rep
	hvSec, hvOps, rec := rep.HVSeconds, rep.HVOps, rep.RecoverySeconds
	res, err := s.execHV(q, plan)
	if err != nil {
		return fmt.Errorf("multistore: query %d failed (%v) and its HV fallback failed too: %w", q.entry.Seq, cause, err)
	}
	// The step booked productive HV time; a fallback's is a penalty.
	rep.HVSeconds, rep.HVOps = hvSec, hvOps
	rep.RecoverySeconds = rec + (res.Seconds + res.RecoverySeconds)
	rep.FellBackToHV = true
	q.answer(res.Table)
	return nil
}
