package multistore

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"

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
	// led is the ledger ctx carries (nil when no memory limit is
	// configured): the read phase's compute charged it too, and a step the
	// commit drops returns its bytes to it.
	led *govern.Ledger
	// ahead is what the query's read phase found before s.mu.
	ahead ahead
	// staged holds the working sets the query migrated, by temp name: the
	// DW remainder reads them beside the DW store's permanent views. They
	// belong to this query alone and leave with it.
	staged map[string]*storage.Table
}

// answer records t as the query's result.
func (q *query) answer(t *storage.Table) {
	q.rep.ResultRows = t.NumRows()
	q.rep.Result = t
}

// submit is the one query path, in two phases. Every entry point runs the
// same steps under s.mu — prologue (begin), the plan (choose), its run by
// the one executor (runPlan: HV steps through execHV, which books the read
// phase's run of a step or computes it, cut migrations through migrateCut),
// booking (charge + bookLocked) — and the variant's pre- and post-steps
// around the run (runVariant, settleVariant). The degraded route runs
// HV-OP's plan and skips the result-view probe and the variant's steps; a
// cache hit books the table a result view holds and runs nothing.
//
// Before the lock comes the read phase, for every route, which draws no
// fault and writes nothing another query reads. It builds the plan — once
// per statement text: the builder hands every repeat of a text the plan it
// built first (shared, since a built plan is immutable), and plan building
// reads only construction-time catalog state — then reads ahead
// (readAhead): the result view of the plan's root, checksum-verified, and
// the plan the route runs (planFor); and then computes ahead
// (computeAhead) the steps of that plan that read no raw log, charged to
// the query's own memory ledger. Under the lock the commit takes what the
// read phase found while the version tuple it read stands still, and looks
// or plans again only when it moved (heldAnswer, choose); it books a step
// computed ahead only where its own plan's step is the same computation
// over the same tables, and computes any other step itself, at the same
// point (runPlan). So queries linearize in commit order: every answer,
// plan and simulated second is what the same queries run one at a time in
// that order would give.
func (s *System) submit(ctx context.Context, sql string, degraded bool) (*QueryReport, error) {
	// Nil when unconfigured: governance then costs nothing.
	led := govern.NewLedger(s.cfg.MemLimitBytes)
	if s.onLedger != nil {
		s.onLedger(led)
	}
	defer led.ReleaseAll()
	ctx = govern.WithLedger(ctx, led)

	plan, buildErr := s.builder.BuildSQL(sql)
	var pre ahead
	var hit bool
	if buildErr == nil {
		if s.results != nil {
			s.running.enter(plan)
			defer s.running.leave(plan)
		}
		pre = s.readAhead(plan, degraded)
		s.computeAhead(ctx, &pre)
	}
	if betweenPhases != nil {
		betweenPhases(s, &pre)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { pre.ran.account(s, &pre, hit) }()
	q, err := s.begin(ctx, sql, plan, buildErr)
	if err != nil {
		return nil, err
	}
	q.ahead = pre
	q.rep.Degraded = degraded

	if s.results != nil && !degraded {
		if t, ok := s.heldAnswer(plan, &q.ahead, q.entry.Seq); ok {
			hit = true
			q.rep.CacheHit = true
			q.answer(t)
			s.charge(q.rep)
			return s.bookLocked(q, nil)
		}
		s.metrics.CacheMisses++
	}
	if !degraded {
		if err := s.runVariant(); err != nil {
			return nil, err
		}
	}
	mp, err := s.choose(plan, &q.ahead)
	if err != nil {
		return nil, err
	}
	if err := s.runPlan(q, mp); err != nil {
		return nil, err
	}

	s.charge(q.rep)
	var settled *durability.Record
	if !degraded {
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

// betweenPhases, when set, runs between a query's read phase and its
// commit, outside s.mu, and sees what the read phase found. Tests arm it to
// land a write in the gap; it is nil otherwise.
var betweenPhases func(s *System, a *ahead)

// ahead is what a query's read phase found before s.mu: the version
// tuple, read first; with the reuse plane on, the result view held for the
// plan's root and whether its table verified; and the plan the query's
// route runs.
type ahead struct {
	ver      planVersions
	result   *views.View
	verified bool
	// route is the variant whose plan the query runs: the system's own, or
	// HV-OP on the degraded route.
	route Variant
	// mp is nil when the read phase has no plan to offer; fresh marks a
	// plan it planned rather than found kept.
	mp    *optimizer.MultiPlan
	fresh bool
	// ran is what the read phase computed of mp's steps, nil for none.
	ran *ran
}

// readAhead is the read phase. It takes no lock but the sets', the
// estimator's and the plan cache's own: a verified result view ends it
// (the commit will most likely serve it; the degraded route serves none);
// so does a reorganization due before the query, which moves the design
// any plan read; otherwise it asks planFor for the route's plan under the
// tuple. Base estimates read the logs' sizes, which are safe beside an
// append.
func (s *System) readAhead(plan *logical.Node, degraded bool) ahead {
	a := ahead{ver: s.versions(), route: s.cfg.Variant}
	if degraded {
		a.route = VariantHVOp
	} else {
		if s.results != nil {
			if v, ok := s.results.ByID(plan.ID()); ok {
				a.result, a.verified = v, v.Verify()
				if a.verified {
					return a
				}
			}
		}
		if s.tunesBefore(int(s.nextSeq.Load())) {
			return a
		}
	}
	if mp, fresh, err := s.planFor(plan, a.route, a.ver); err == nil {
		a.mp, a.fresh = mp, fresh
	} // else the commit plans again and reports it
	return a
}

// computeAhead is the read phase's second step: with a plan in hand (a.mp)
// it computes, before s.mu and under ctx, which carries the query's memory
// ledger, the plan's steps in the order the commit books them — each HV cut
// that no DW view answers through hv.BeginExecute (a cut a result view
// holds is its table), or the HV-only plan, then the DW remainder through
// dw.BeginExecute over the working sets so found — up to the first step it
// leaves to the commit or that fails. Neither draws a fault from the
// system's injector or writes what another query reads. A step whose plan
// scans a raw log is left to the commit: in HV a log scan is the run a
// second session is most likely to compute again and throw away, before
// the first one's commit captures its by-products as views; in DW it is a
// DW-only plan planned before its ETL, which the commit plans again or
// fails. A step whose
// views moved while it ran is left to the commit too, which computes it as
// a serial run would. A step that fails keeps its error, which the commit
// returns where it takes the step, as a serial run would have failed
// there: computing it again would draw the exec plane's faults a second
// time. It stays out of readAhead, so the read phase of a hit allocates
// nothing.
func (s *System) computeAhead(ctx context.Context, a *ahead) {
	mp := a.mp
	if mp == nil || ctx.Err() != nil || computeAheadOff || mp.DWOnly() && hasRawScan(mp.DWPart) {
		return
	}
	r := &ran{}
	led := govern.LedgerFrom(ctx)
	if mp.HVOnly {
		r.computeHV(ctx, s.hv, mp.HVPlan, led)
	} else if staged, ok := s.cutsAhead(ctx, r, mp, led); ok {
		reads := viewTables(s.dw.Views, mp.DWPart, nil)
		before := led.Used()
		p, err := s.dw.BeginExecute(ctx, mp.DWPart, staged)
		held := led.Used() - before
		if readsStand(s.dw.Views, mp.DWPart, reads) {
			r.steps = append(r.steps, step{plan: mp.DWPart, reads: reads, staged: staged, dw: p, err: err, held: held})
		} else {
			led.Release(held)
		}
	}
	if len(r.steps) > 0 {
		a.ran = r
	}
}

// cutsAhead computes mp's HV cuts ahead as r's steps and returns the
// working sets the DW remainder reads, by temp name; ok is false when it
// left a cut to the commit or a cut failed.
func (s *System) cutsAhead(ctx context.Context, r *ran, mp *optimizer.MultiPlan, led *govern.Ledger) (staged map[string]*storage.Table, ok bool) {
	staged = make(map[string]*storage.Table, len(mp.Cuts))
	for _, cut := range mp.Cuts {
		if cut.DWView != nil {
			continue
		}
		var ws *storage.Table
		if s.results != nil {
			if v, held := s.results.ByID(cut.Node.ID()); held {
				ws = v.Table
				r.steps = append(r.steps, step{ws: ws})
			}
		}
		if ws == nil {
			if ws = r.computeHV(ctx, s.hv, cut.HVPlan, led); ws == nil {
				return nil, false
			}
		}
		staged[cut.TempName] = ws
	}
	return staged, true
}

// computeAheadOff, when set, leaves every step to the commit. Tests set it
// for a twin that computes everything under the lock; it is false
// otherwise.
var computeAheadOff bool

// ran is what a query's read phase computed of its plan (computeAhead): its
// steps in the order the commit books them. The commit takes them front to
// back, each only where its own plan's step is the same computation over
// the same tables; at the first it cannot take it drops the rest, returning
// their bytes to the ledger before it computes anything itself, so the
// ledger holds at every step what a serial run's would. Every method is
// safe on nil: nothing computed ahead.
type ran struct {
	steps []step
	next  int // the first step not taken
	// dropped marks a step thrown away.
	dropped bool
}

// step is one step computed ahead: an HV run or the DW remainder (staged
// non-nil: the working sets it read) of plan over reads — the table each
// ViewScan of plan found in its store's view set, nil where none — with
// its pending run (hv or dw) or the error its compute returned (err); or a
// cut a result view answered with its table ws. held is the ledger bytes
// the step holds.
type step struct {
	plan   *logical.Node
	reads  []*storage.Table
	staged map[string]*storage.Table
	hv     *hv.Pending
	dw     *dw.Pending
	err    error
	ws     *storage.Table
	held   int64
}

// computeHV computes plan in h as r's next step and returns its table, or
// returns nil when plan scans a raw log or a view it reads moved
// meanwhile, leaving the step to the commit, or when the compute failed,
// keeping the error as the step.
func (r *ran) computeHV(ctx context.Context, h *hv.Store, plan *logical.Node, led *govern.Ledger) *storage.Table {
	if hasRawScan(plan) {
		return nil
	}
	reads := viewTables(h.Views, plan, nil)
	before := led.Used()
	p, err := h.BeginExecute(ctx, plan)
	held := led.Used() - before
	if !readsStand(h.Views, plan, reads) {
		led.Release(held)
		return nil
	}
	r.steps = append(r.steps, step{plan: plan, reads: reads, hv: p, err: err, held: held})
	if err != nil {
		return nil
	}
	return p.Table()
}

// viewTables appends to into the table each ViewScan of n finds in set, in
// walk order, nil where set holds no such view.
func viewTables(set *views.Set, n *logical.Node, into []*storage.Table) []*storage.Table {
	if n.Kind == logical.KindViewScan {
		var t *storage.Table
		if v, ok := set.Get(n.ViewName); ok {
			t = v.Table
		}
		into = append(into, t)
	}
	for _, c := range n.Children {
		into = viewTables(set, c, into)
	}
	return into
}

// readsStand reports whether every ViewScan of n still finds in set the
// table reads holds for it. Read before and after a compute, the same
// tables on both sides are the ones the compute read: a set replaces a
// view's table, and nothing installs a table a view held before.
func readsStand(set *views.Set, n *logical.Node, reads []*storage.Table) bool {
	k := 0
	return standFrom(set, n, reads, &k)
}

// standFrom is readsStand from the ViewScan reads[*k] stands for.
func standFrom(set *views.Set, n *logical.Node, reads []*storage.Table, k *int) bool {
	if n.Kind == logical.KindViewScan {
		var t *storage.Table
		if v, ok := set.Get(n.ViewName); ok {
			t = v.Table
		}
		if t != reads[*k] {
			return false
		}
		*k++
	}
	for _, c := range n.Children {
		if !standFrom(set, c, reads, k) {
			return false
		}
	}
	return true
}

// takes reports whether the next step computed plan, by id — the same
// computation, whichever choice built the plan — over tables set still
// holds. Node ids stand for signatures, so the step's ViewScans are plan's,
// in the same order.
func (r *ran) takes(set *views.Set, plan *logical.Node) bool {
	if r == nil || r.next == len(r.steps) {
		return false
	}
	st := &r.steps[r.next]
	return st.plan != nil && st.plan.ID() == plan.ID() && readsStand(set, st.plan, st.reads)
}

// takeHV takes the next step when it is an HV run of plan over tables h's
// views still hold, and else drops the rest and returns nil: the commit
// computes the step.
func (r *ran) takeHV(h *hv.Store, plan *logical.Node, led *govern.Ledger) *step {
	if !r.takes(h.Views, plan) || r.steps[r.next].staged != nil {
		r.drop(led)
		return nil
	}
	r.next++
	return &r.steps[r.next-1]
}

// takeHeld takes the next step when it is the cut answered by the result
// view that answers it at the commit, table ws, and else drops the rest.
func (r *ran) takeHeld(ws *storage.Table, led *govern.Ledger) {
	if r == nil || r.next == len(r.steps) {
		return
	}
	if st := r.steps[r.next]; st.plan != nil || st.ws != ws {
		r.drop(led)
		return
	}
	r.next++
}

// takeDW takes the next step when it is the DW remainder plan computed over
// tables d's views still hold and over the very working sets the commit
// staged, and else drops the rest and returns nil.
func (r *ran) takeDW(d *dw.Store, plan *logical.Node, staged map[string]*storage.Table, led *govern.Ledger) *step {
	if !r.takes(d.Views, plan) || r.steps[r.next].staged == nil || !maps.Equal(r.steps[r.next].staged, staged) {
		r.drop(led)
		return nil
	}
	r.next++
	return &r.steps[r.next-1]
}

// drop throws away every step not yet taken and returns its bytes to led.
func (r *ran) drop(led *govern.Ledger) {
	if r == nil {
		return
	}
	for _, st := range r.steps[r.next:] {
		led.Release(st.held)
		r.dropped = true
	}
	r.next = len(r.steps)
}

// account reports, through runDropped, a query whose commit threw away a
// step its read phase computed (a.ran, r); hit marks a commit a result view
// answered.
func (r *ran) account(s *System, a *ahead, hit bool) {
	if r != nil && runDropped != nil && (r.dropped || r.next < len(r.steps)) {
		runDropped(s, a, hit)
	}
}

// runDropped, when set, sees under s.mu, as its commit ends, every query
// whose commit threw away a step its read phase computed (a.ran), and
// whether a result view answered the commit, which then executed nothing.
// Tests arm it to count wasted read-phase runs; it is nil otherwise.
var runDropped func(s *System, a *ahead, hit bool)

// running lets, with the reuse plane on, one query of a statement (one
// built plan) at a time through its read phase and commit. A copy that
// arrives while another is in flight waits for it, as it once waited for
// System.mu, and then finds the result view that copy's commit admitted:
// computing the statement again beside it would only be thrown away at the
// commit (in the cache soak's lockstep sessions, every copy but one). It
// decides when a query starts, never what it answers.
type running struct {
	mu   sync.Mutex
	left sync.Cond // signalled on every leave
	n    map[*logical.Node]bool
}

// enter waits until no query of plan is in flight, then marks this one.
func (r *running) enter(plan *logical.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n[plan] {
		r.left.Wait()
	}
	r.n[plan] = true
}

// leave unmarks the query of plan and wakes the queries waiting to enter.
func (r *running) leave(plan *logical.Node) {
	r.mu.Lock()
	delete(r.n, plan)
	r.mu.Unlock()
	r.left.Broadcast()
}

// heldAnswer is the result-view probe for the query's root. While the
// result views have not moved since the read phase, what it found stands:
// no lookup and no checksum run under the lock. After a move the view is
// looked up again, and verified again unless it holds the table and
// checksum the read phase verified (tables are immutable, so Verify would
// answer as it did). Callers hold s.mu.
func (s *System) heldAnswer(plan *logical.Node, a *ahead, seq int) (*storage.Table, bool) {
	v, verified := a.result, a.verified
	if s.results.Version() != a.ver.results {
		cur, _ := s.results.ByID(plan.ID())
		if cur == nil || v == nil || cur.Table != v.Table || cur.Checksum != v.Checksum {
			verified = cur != nil && cur.Verify()
		}
		v = cur
	}
	return s.settleResult(v, verified, seq)
}

// begin is the prologue every query passes, in an order the fault plane
// fixes: injector draws are consumed in program order, so the steps must
// not move across the bit-rot draw or the serve-crash draw. ctx carries the
// query's memory ledger; plan and buildErr are what BuildSQL returned for
// the query's SQL; a build error surfaces only after the rot draw — an
// unparsable query is still an operation, and it moves the injector
// exactly as far as a valid one's prologue does. A query whose context is
// already done returns before anything is drawn or charged. Callers hold
// s.mu.
func (s *System) begin(ctx context.Context, sql string, plan *logical.Node, buildErr error) (*query, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("multistore: query not started: %w", err)
	}
	s.beginOp()
	s.maybeRot()
	if buildErr != nil {
		return nil, buildErr
	}
	q := &query{
		ctx:   ctx,
		entry: history.Entry{Seq: s.seq, SQL: sql, Plan: plan},
		rep:   &QueryReport{Seq: s.seq, SQL: sql},
		led:   govern.LedgerFrom(ctx),
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
	s.nextSeq.Store(int64(s.seq))
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
// DW work, recovery) is charged to RECOVERY — work done and thrown away;
// its staged working sets leave with it. The cause classifies the abort:
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

// execHV is the one HV step: book st, what the read phase computed of plan
// (nil: compute it now, under the query's context), and sum what it paid
// into the report. What the execution means to the query (its whole
// answer, one cut's working set, a fallback whose time is a penalty) is the
// caller's lines around it.
func (s *System) execHV(q *query, plan *logical.Node, st *step) (*hv.Result, error) {
	var p *hv.Pending
	var err error
	if st != nil {
		p, err = st.hv, st.err
	} else {
		p, err = s.hv.BeginExecute(q.ctx, plan)
	}
	var res *hv.Result
	if err == nil {
		res, err = p.Commit(q.ctx, q.entry.Seq)
	}
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

// runPlan is the one executor: it runs mp, the plan choose handed the
// query's commit. An HV-only plan is one HV step. Otherwise each cut runs
// in HV (or comes from a result view), its working set migrates into the
// query's staged working sets, and the remainder runs in DW over them; a
// mid-flight failure of the transfer or of the DW side degrades to
// fallbackHV — but for a DW-only plan (no cut: DW-ONLY's), which may read
// no raw log and fails with DW. Each step books what the read phase
// computed of it when that is the same computation over the same tables
// (ran), and computes it here otherwise. HV by-products accumulate in the
// store until settleVariant; MS-LRU keeps every working set that reached
// DW (retainWorkingSet).
func (s *System) runPlan(q *query, mp *optimizer.MultiPlan) error {
	r := q.ahead.ran
	if mp.HVOnly {
		res, err := s.execHV(q, mp.HVPlan, r.takeHV(s.hv, mp.HVPlan, q.led))
		if err != nil {
			return err
		}
		q.rep.HVOnly = true
		q.answer(res.Table)
		return nil
	}
	dwOnly := mp.DWOnly()
	if dwOnly && hasRawScan(mp.DWPart) {
		return fmt.Errorf("multistore: DW-only plan of query %d reads a raw log: not covered by the ETL'd data", q.entry.Seq)
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
		// below still runs: the working set must reach DW either way.
		var ws *storage.Table
		if s.results != nil {
			if t, ok := s.heldResult(cut.Node, q.entry.Seq); ok {
				ws = t
				rep.SubplanHits++
				r.takeHeld(ws, q.led)
			}
		}
		if ws == nil {
			res, err := s.execHV(q, cut.HVPlan, r.takeHV(s.hv, cut.HVPlan, q.led))
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
		if s.cfg.Variant == VariantMSLru {
			s.retainWorkingSet(q, cut.Node, ws)
		}
	}

	if err := q.ctx.Err(); err != nil {
		return s.abandon(q, err)
	}
	var p *dw.Pending
	var err error
	if st := r.takeDW(s.dw, mp.DWPart, q.staged, q.led); st != nil {
		p, err = st.dw, st.err
	} else {
		p, err = s.dw.BeginExecute(q.ctx, mp.DWPart, q.staged)
	}
	if err != nil {
		return s.failedIn(q, "DW", err)
	}
	dwRes := p.Commit()
	// Replay injected DW-side failures against the query's report.
	if err := s.retry.Replay(q.ctx, s.inj, faults.SiteDWQuery, "dw query", dwRes.Seconds, &rep.Retries, &rep.RecoverySeconds); err != nil {
		if dwOnly {
			return fmt.Errorf("multistore: query %d in DW: %w", q.entry.Seq, err)
		}
		// DW gave out mid-query: degrade to HV.
		return s.fallbackHV(q, err)
	}
	s.answerFromDW(q, mp.DWPart, dwRes)
	return nil
}

// migrateCut is the one cut migration: it moves a cut's working set into
// DW, staged for the query under name, journaled as a begin..commit (or begin..abort)
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
	if q.staged == nil {
		q.staged = make(map[string]*storage.Table, 2)
	}
	q.staged[name] = ws
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
	q.ahead.ran.drop(q.led)
	plan := s.hvOpPlan(q.entry.Plan).HVPlan
	rep := q.rep
	hvSec, hvOps, rec := rep.HVSeconds, rep.HVOps, rep.RecoverySeconds
	res, err := s.execHV(q, plan, nil)
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
