package experiments

import (
	"math/rand"
	"runtime"
	"testing"

	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// TestServedFootprintIsFlat serves 10 000 MS-MISO queries through the load
// driver, reorganizing every 100 completions, and requires what the system
// holds at 10 000 to be what it held at 1 000: the report log is a ring, so
// neither the live heap, nor the goroutine count, nor len(Reports()) may
// grow with the number of queries answered.
func TestServedFootprintIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 10 000 queries")
	}
	sys, err := small().newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) { mc.ReorgEvery = 0 })
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 8}, sys)
	d := newDriver(srv)
	d.onResult = func(n int, _ request, _ *multistore.QueryReport, _ error) error {
		if n%100 != 0 {
			return nil
		}
		return srv.Reorganize()
	}
	sqls := workload.SQLs()
	type footprint struct {
		heapMB              float64
		goroutines, reports int
	}
	// serve answers perClient more queries on each of two clients, then
	// measures with the phase's latency samples dropped.
	served := 0
	serveMore := func(perClient int) footprint {
		d.closed(closedLoop{clients: 2, count: perClient, next: func(c, i int, _ *rand.Rand) request {
			return request{sql: sqls[(served+2*i+c)%len(sqls)]}
		}})
		served += 2 * perClient
		if err := d.tally.check(); err != nil {
			t.Fatal(err)
		}
		if got := sys.Metrics().Queries; got != served {
			t.Fatalf("answered %d of %d queries", got, served)
		}
		d.tally = newTally()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return footprint{float64(ms.HeapAlloc) / 1e6, runtime.NumGoroutine(), len(sys.Reports())}
	}
	at1k := serveMore(500)
	at10k := serveMore(4500)
	t.Logf("at 1 000: %+v; at 10 000: %+v", at1k, at10k)
	if at10k.heapMB > 1.1*at1k.heapMB {
		t.Errorf("live heap grew from %.1f MB at 1 000 queries to %.1f MB at 10 000", at1k.heapMB, at10k.heapMB)
	}
	if at10k.goroutines > at1k.goroutines+at1k.goroutines/10 {
		t.Errorf("goroutines grew from %d to %d", at1k.goroutines, at10k.goroutines)
	}
	if at10k.reports != at1k.reports {
		t.Errorf("len(Reports()) went from %d to %d", at1k.reports, at10k.reports)
	}
	if _, err := d.finish(sys); err != nil {
		t.Fatal(err)
	}
}
