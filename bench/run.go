package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"miso/internal/exec"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
)

// roundKind says what a round records besides the end-to-end numbers.
type roundKind int

const (
	untraced roundKind = iota
	// counted times the backend's RunContext and Reorganize and reads the
	// counters the program exposes; nothing is replayed.
	counted
	// probed replays every query's layer calls (see probedBackend), from
	// one goroutine and without the server.
	probed
)

// meter accumulates wall clock, process CPU and allocated bytes over the
// timed sections of a round.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64

	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (m *meter) start() {
	m.alloc0 = totalAlloc()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += processCPU() - m.cpu0
	m.alloc += totalAlloc() - m.alloc0
}

// answer is one answered query, kept until the timed section ends so that
// checking it costs the clients nothing.
type answer struct {
	query int
	table *storage.Table
}

// round is what one round measured.
type round struct {
	rec       *recorder // nil when untraced
	calibMs   []float64 // see calibrate
	setup     time.Duration
	m         meter
	latMs     []float64
	reorgMs   []float64
	appendMs  []float64
	dropped   []float64
	attempted int
	failed    int
	heapMB    float64
	tti32     float64 // simulated TTI per 32 answered queries
	digest    uint64  // StateDigest at the end (of every pass, when sequential)
	problems  []string

	// Kept by traced rounds for the per-layer metrics.
	sys      *multistore.System
	srv      serve.Metrics
	exec     *exec.Stats
	spans    []span
	probes   []probeObs
	dwSkip   int
	answered int
}

func (rd *round) problemf(format string, args ...any) {
	rd.failed++
	if len(rd.problems) < 10 {
		rd.problems = append(rd.problems, fmt.Sprintf(format, args...))
	}
}

// runner runs one workload's rounds.
type runner struct {
	w       workload
	in      *inputs
	clients int
	rec     *recorder // nil in an untraced run
	// refTTI and refDigest are where an untouched sequential run of the
	// variant ends (ReorgEvery=3 inside Run): every pass must end there too,
	// traced or not.
	refTTI    float64
	refDigest uint64
	nextQ     atomic.Int64
}

func newRunner(w workload, in *inputs, rec *recorder) (*runner, error) {
	rn := &runner{w: w, in: in, clients: min(2, runtime.NumCPU()), rec: rec}
	if !w.served {
		cat, err := in.catalog()
		if err != nil {
			return nil, err
		}
		cfg := w.config(cat)
		cfg.ReorgEvery = seqReorgEvery
		sys := multistore.New(cfg, cat)
		if _, err := in.answers(sys); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		rn.refTTI, rn.refDigest = sys.Metrics().TTI(), sys.StateDigest()
	}
	return rn, nil
}

// newRound starts a round of the given kind.
func (rn *runner) newRound(kind roundKind) *round {
	rd := &round{}
	if kind != untraced {
		rd.rec, rd.exec = rn.rec, &exec.Stats{}
	}
	return rd
}

// backends wraps sys for the round's kind. tb is nil when untraced.
func (rn *runner) backends(sys *multistore.System, cat *storage.Catalog, kind roundKind) (serve.Backend, *timedBackend, *probedBackend) {
	if kind == untraced {
		return sys, nil, nil
	}
	tb := &timedBackend{sys: sys, rec: rn.rec}
	if kind == counted {
		return tb, tb, nil
	}
	pb := newProbedBackend(tb, cat, rn.w)
	return pb, tb, pb
}

// query submits one query through do, timing it as the client sees it.
func (rn *runner) query(rd *round, served bool, qi int, do func(context.Context, string) (*multistore.QueryReport, error)) (answer, time.Duration, error) {
	ctx := context.Background()
	var doSpan int
	if rd.rec != nil {
		q := int(rn.nextQ.Add(1))
		if served {
			doSpan = rd.rec.begin(q, 0, "serve.do")
		}
		ctx = withSpan(ctx, q, doSpan)
	}
	t := time.Now()
	rep, err := do(ctx, rn.in.sqls[qi])
	lat := time.Since(t)
	rd.rec.end(doSpan)
	if err != nil {
		return answer{}, lat, err
	}
	return answer{qi, rep.Result}, lat, nil
}

// reorganize times one reorganization as its caller sees it. A caller that
// goes through the server names its own span, which becomes the parent of
// the backend's.
func (rd *round) reorganize(tb *timedBackend, name string, reorg func() error) (time.Duration, error) {
	var id int
	if tb != nil && name != "" {
		id = rd.rec.begin(0, 0, name)
		tb.reorgParent = spanRef{0, id}
	}
	t := time.Now()
	err := reorg()
	d := time.Since(t)
	rd.rec.end(id)
	return d, err
}

// verify checks answers against the oracle.
func (rd *round) verify(answers []answer, oracle []uint64) {
	for _, a := range answers {
		if got := storage.ChecksumData(a.table); got != oracle[a.query] {
			rd.problemf("query %d: answer checksum %x, oracle %x", a.query, got, oracle[a.query])
		}
	}
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// passRound runs the sequential workloads: the 32 queries in paper order on
// a fresh System per pass, passes repeating until budget is spent.
func (rn *runner) passRound(budget time.Duration, kind roundKind) (*round, error) {
	rd := rn.newRound(kind)
	spanFrom := rd.rec.len()

	t := time.Now()
	cat, err := rn.in.catalog()
	if err != nil {
		return nil, err
	}
	sys := rn.w.newSystem(cat)
	rd.setup = time.Since(t)

	miso := rn.w.variant == multistore.VariantMSMiso
	for pass := 0; pass == 0 || rd.m.wall < budget; pass++ {
		if pass > 0 {
			sys = rn.w.newSystem(cat)
		}
		sys.SetExecStats(rd.exec)
		be, tb, pb := rn.backends(sys, cat, kind)
		answers := make([]answer, 0, len(rn.in.sqls))
		rd.calibrate(1)

		rd.m.start()
		for i := range rn.in.sqls {
			if miso && i > 0 && i%seqReorgEvery == 0 {
				d, err := rd.reorganize(tb, "", be.Reorganize)
				if err != nil {
					return nil, fmt.Errorf("reorganize before query %d: %w", i, err)
				}
				rd.reorgMs = append(rd.reorgMs, ms(d))
			}
			rd.attempted++
			a, lat, err := rn.query(rd, false, i, be.RunContext)
			if err != nil {
				rd.problemf("query %d: %v", i, err)
				continue
			}
			answers = append(answers, a)
			rd.latMs = append(rd.latMs, ms(lat))
		}
		rd.m.stop()

		rd.verify(answers, rn.in.oracle)
		if err := sys.CheckInvariants(); err != nil {
			rd.problemf("pass %d: %v", pass, err)
		}
		// Simulated time is a count: every pass must repeat it exactly.
		rd.tti32, rd.digest = sys.Metrics().TTI(), sys.StateDigest()
		if rd.tti32 != rn.refTTI || rd.digest != rn.refDigest {
			rd.problemf("pass %d ended at TTI %v digest %x, an untouched run at %v %x", pass, rd.tti32, rd.digest, rn.refTTI, rn.refDigest)
		}
		rd.takeProbes(pb)
	}
	rd.heapMB = heapMB()
	rd.keep(sys, spanFrom)
	return rd, nil
}

// streamRound runs the served workloads: clients draw queries from their
// Zipf streams until budget is spent, over one System warmed by one pass.
// Through the server each client is a goroutine; without it one goroutine
// takes the clients' streams in turn.
func (rn *runner) streamRound(budget time.Duration, clients int, viaServer bool, kind roundKind) (*round, error) {
	rd := rn.newRound(kind)

	t := time.Now()
	cat, err := rn.in.catalog()
	if err != nil {
		return nil, err
	}
	sys := rn.w.newSystem(cat)
	for i, sql := range rn.in.sqls {
		if _, err := sys.Run(sql); err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	be, tb, pb := rn.backends(sys, cat, kind)
	do, reorg, reorgName := be.RunContext, be.Reorganize, ""
	var srv *serve.Server
	if viaServer {
		// The queue holds every client's one outstanding query, so nothing
		// is ever shed.
		srv = serve.NewServer(serve.Config{Workers: clients, QueueDepth: 4 * clients}, be)
		defer srv.Close()
		if rn.w.reuse {
			srv.SetReorgHook(sys.InvalidateReuse)
		}
		do, reorg, reorgName = srv.Do, srv.Reorganize, "serve.reorganize"
	}
	rd.setup = time.Since(t)
	sys.SetExecStats(rd.exec)
	spanFrom := rd.rec.len()

	var (
		mu      sync.Mutex // guards rd and answers
		answers []answer
		done    atomic.Int64
		reorgMu sync.Mutex // one reorganization at a time
		fatal   atomic.Pointer[error]
	)
	step := func(next func() int) {
		qi := next()
		a, lat, err := rn.query(rd, viaServer, qi, do)
		mu.Lock()
		rd.attempted++
		if err != nil {
			rd.problemf("query %d: %v", qi, err)
		} else {
			answers = append(answers, a)
			rd.latMs = append(rd.latMs, ms(lat))
		}
		mu.Unlock()
		if err != nil {
			return
		}
		n := done.Add(1)
		if n%reorgEvery == 0 {
			reorgMu.Lock()
			d, err := rd.reorganize(tb, reorgName, reorg)
			reorgMu.Unlock()
			if err != nil {
				err = fmt.Errorf("reorganize after %d queries: %w", n, err)
				fatal.CompareAndSwap(nil, &err)
				return
			}
			mu.Lock()
			rd.reorgMs = append(rd.reorgMs, ms(d))
			mu.Unlock()
		}
		if rn.w.ingest && n%appendEvery == 0 {
			id := rd.rec.begin(0, 0, "multistore.append")
			t := time.Now()
			dropped, err := sys.AppendToLog("tweets", rn.in.appendBatch(int(n/appendEvery)-1))
			d := time.Since(t)
			rd.rec.end(id)
			if err != nil {
				err = fmt.Errorf("append after %d queries: %w", n, err)
				fatal.CompareAndSwap(nil, &err)
				return
			}
			mu.Lock()
			rd.appendMs = append(rd.appendMs, ms(d))
			rd.dropped = append(rd.dropped, float64(dropped))
			mu.Unlock()
		}
	}

	streams := make([]func() int, clients)
	for c := range streams {
		streams[c] = rn.in.draws(c)
	}
	rd.calibrate(3)
	deadline := time.Now().Add(budget)
	running := func() bool { return time.Now().Before(deadline) && fatal.Load() == nil }
	rd.m.start()
	if viaServer {
		var wg sync.WaitGroup
		for _, next := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ok := true; ok; ok = running() {
					step(next)
				}
			}()
		}
		wg.Wait()
	} else {
		for i, ok := 0, true; ok; i, ok = i+1, running() {
			step(streams[i%clients])
		}
	}
	rd.m.stop()
	rd.calibrate(3)
	if errp := fatal.Load(); errp != nil {
		return nil, *errp
	}
	rd.takeProbes(pb)
	rd.keep(sys, spanFrom)

	if rn.w.ingest {
		// The log moved under the clients, so the timed answers have no one
		// oracle. Ask all 32 again and compare with a fresh HV-ONLY system
		// over the log as it now stands.
		final, err := rn.in.answers(hvOnly.newSystem(cat))
		if err != nil {
			return nil, fmt.Errorf("oracle after the last append: %w", err)
		}
		answers = answers[:0]
		for qi := range rn.in.sqls {
			rd.attempted++
			a, _, err := rn.query(rd, viaServer, qi, do)
			if err != nil {
				rd.problemf("query %d after the last append: %v", qi, err)
				continue
			}
			answers = append(answers, a)
		}
		rd.verify(answers, final)
	} else {
		rd.verify(answers, rn.in.oracle)
	}
	if err := sys.CheckInvariants(); err != nil {
		rd.problemf("%v", err)
	}
	if srv != nil {
		rd.srv = srv.Metrics()
		if err := rd.srv.Check(); err != nil {
			rd.problemf("%v", err)
		}
	}
	m := sys.Metrics()
	rd.tti32 = m.TTI() * 32 / float64(m.Queries)
	rd.digest = sys.StateDigest()
	rd.heapMB = heapMB()
	runtime.KeepAlive(sys)
	return rd, nil
}

// keep retains, at the end of a traced round's timed section, what the
// per-layer metrics read; an untraced round lets its System go.
func (rd *round) keep(sys *multistore.System, spanFrom int) {
	rd.answered = len(rd.latMs)
	if rd.rec != nil {
		rd.sys = sys
		rd.spans = rd.rec.since(spanFrom)
	}
}

// takeProbes moves what a probed backend observed into the round.
func (rd *round) takeProbes(pb *probedBackend) {
	if pb != nil {
		rd.probes = append(rd.probes, pb.obs...)
		rd.dwSkip += pb.dwSkipped
	}
}
