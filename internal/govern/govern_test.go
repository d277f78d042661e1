package govern

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestNilGovernanceIsNoop(t *testing.T) {
	var l *Ledger
	if err := l.Reserve(1 << 30); err != nil {
		t.Fatalf("nil ledger Reserve: %v", err)
	}
	l.Release(1 << 30)
	l.ReleaseAll()
	if l.Used() != 0 || l.HighWater() != 0 {
		t.Fatal("nil ledger reports usage")
	}
	sc := l.NewScope()
	if sc != nil {
		t.Fatal("nil ledger produced a scope")
	}
	if err := sc.Reserve(1); err != nil {
		t.Fatalf("nil scope Reserve: %v", err)
	}
	sc.Release()
	if NewLedger(0) != nil || NewLedger(-1) != nil {
		t.Fatal("unlimited ledger should be nil")
	}
}

func TestLedgerLimit(t *testing.T) {
	l := NewLedger(100)
	if err := l.Reserve(60); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	err := l.Reserve(50)
	if !errors.Is(err, ErrMemLimit) {
		t.Fatalf("over-limit reserve: got %v, want ErrMemLimit", err)
	}
	if l.Used() != 60 {
		t.Fatalf("failed reserve leaked: used=%d", l.Used())
	}
	if err := l.Reserve(40); err != nil {
		t.Fatalf("exact fill: %v", err)
	}
	if l.HighWater() != 100 {
		t.Fatalf("high water = %d, want 100", l.HighWater())
	}
	l.Release(100)
	if l.Used() != 0 {
		t.Fatalf("used after release = %d", l.Used())
	}
}

func TestScopeReleasesEverything(t *testing.T) {
	l := NewLedger(1000)
	sc := l.NewScope()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := sc.Reserve(10); err != nil {
					t.Errorf("reserve: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if l.Used() != 800 {
		t.Fatalf("used = %d, want 800", l.Used())
	}
	sc.Release()
	if l.Used() != 0 {
		t.Fatalf("used after scope release = %d", l.Used())
	}
}

func TestCaptureConvertsPanic(t *testing.T) {
	err := Capture("join", func() error { panic(fmt.Errorf("boom")) })
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("not a *PanicError: %v", err)
	}
	if pe.Op != "join" || len(pe.Stack) == 0 {
		t.Fatalf("panic context missing: op=%q stack=%dB", pe.Op, len(pe.Stack))
	}
	if err := Capture("ok", func() error { return nil }); err != nil {
		t.Fatalf("clean fn: %v", err)
	}
}
