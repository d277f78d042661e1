package govern

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLedgerStorm hammers one small shared ledger from many goroutines,
// each cycling reserve → work → release the way a query's morsel workers
// share its Config.MemLimitBytes ledger. The storm must finish (no
// deadlock), every goroutine must complete all its cycles (the retry loop
// bounds starvation), the ledger must never exceed its limit, and after
// the storm every byte must be back (no lost refunds) — run with -race.
func TestLedgerStorm(t *testing.T) {
	const (
		limit      = 1 << 10 // 1 KiB shared across everyone
		workers    = 32
		cycles     = 50
		perReserve = 256 // 4 concurrent holders max: heavy contention
	)
	led := NewLedger(limit)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				for {
					err := led.Reserve(perReserve)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrMemLimit) {
						t.Errorf("reserve failed with unexpected error: %v", err)
						return
					}
					runtime.Gosched() // ledger full: yield and retry
				}
				if u := led.Used(); u > limit {
					t.Errorf("ledger over its limit: %d > %d", u, limit)
					led.Release(perReserve)
					return
				}
				led.Release(perReserve)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := completed.Load(); got != workers*cycles {
		t.Fatalf("%d cycles completed, want %d (a goroutine starved or died)", got, workers*cycles)
	}
	if u := led.Used(); u != 0 {
		t.Fatalf("ledger leaks %d bytes after every worker released", u)
	}
	if h := led.HighWater(); h > limit {
		t.Fatalf("high water %d over the limit %d", h, limit)
	}
}

// TestLedgerStormPartialReleases mixes per-allocation Release with scope
// releases under contention: interleaved partial refunds must not corrupt
// the shared ledger's accounting.
func TestLedgerStormPartialReleases(t *testing.T) {
	led := NewLedger(4 << 10)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 100; c++ {
				sc := led.NewScope()
				if err := sc.Reserve(64); err != nil {
					runtime.Gosched()
					continue
				}
				if err := led.Reserve(32); err == nil {
					led.Release(32)
				}
				sc.Release()
			}
		}()
	}
	wg.Wait()
	if u := led.Used(); u != 0 {
		t.Fatalf("ledger leaks %d bytes after mixed partial and scope releases", u)
	}
}

// TestLedgerNeverRefusesAFittingReservation: a reservation that cannot
// fit must not crowd out one that can. One goroutine keeps asking for
// more than the limit while four others each reserve and release 10 B
// two million times under a 100 B limit; at most 40 B are ever held, so
// every small reservation fits and must be granted.
func TestLedgerNeverRefusesAFittingReservation(t *testing.T) {
	const (
		limit   = 100
		small   = 10
		workers = 4
		cycles  = 2_000_000
	)
	led := NewLedger(limit)
	stop := make(chan struct{})
	running := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(running)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := led.Reserve(limit + 1); err == nil {
				t.Error("a reservation over the limit was granted")
				return
			}
		}
	}()
	<-running
	var refused atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				if err := led.Reserve(small); err != nil {
					refused.Add(1)
					continue
				}
				led.Release(small)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if n := refused.Load(); n != 0 {
		t.Fatalf("%d reservations of %d B refused under a %d B limit that never held more than %d B",
			n, small, limit, workers*small)
	}
	if u := led.Used(); u != 0 {
		t.Fatalf("ledger leaks %d bytes", u)
	}
}
