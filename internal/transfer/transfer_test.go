package transfer

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// TestCostBreakdown: 117 MB at the paper's rates — a 100 MB/s dump, the
// 117 MB/s link, a 25 MB/s bulk load.
func TestCostBreakdown(t *testing.T) {
	b := Cost(117e6)
	if b.Dump != 1.17 || b.Network != 1 || b.Load != 4.68 {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestCostToHVSkipsLoad(t *testing.T) {
	fwd := Cost(1e9)
	back := CostToHV(1e9)
	if back.Load != 0 {
		t.Error("reverse direction charged a DW load")
	}
	if back.Total() >= fwd.Total() {
		t.Error("reverse direction should be cheaper")
	}
}

func TestCostLinearInBytes(t *testing.T) {
	prop := func(mb uint16) bool {
		n := int64(mb) * 1e6
		a := Cost(n).Total()
		b := Cost(2 * n).Total()
		return b >= 2*a-1e-9 && b <= 2*a+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100)
	if b.Limit() != 100 || b.Remaining() != 100 || b.Used() != 0 {
		t.Fatal("fresh budget wrong")
	}
	if !b.Fits(100) || b.Fits(101) {
		t.Error("Fits wrong")
	}
	if err := b.Spend(60); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != 40 {
		t.Errorf("remaining = %d", b.Remaining())
	}
	if err := b.Spend(41); err == nil {
		t.Error("overspend accepted")
	}
	if b.Used() != 60 {
		t.Error("failed spend mutated budget")
	}
	if err := b.Spend(40); err != nil {
		t.Error("exact fill rejected")
	}
	if b.Remaining() != 0 {
		t.Error("remaining after fill")
	}
}

func TestBudgetSpendRefundFitsTable(t *testing.T) {
	const maxI64 = int64(^uint64(0) >> 1)
	tests := []struct {
		name   string
		limit  int64
		ops    func(b *Budget) error
		used   int64
		remain int64
	}{
		{
			name:  "zero limit rejects any spend",
			limit: 0,
			ops: func(b *Budget) error {
				if b.Fits(1) {
					return errWrap("Fits(1) on zero budget")
				}
				if err := b.Spend(1); err == nil {
					return errWrap("Spend(1) accepted on zero budget")
				}
				if !b.Fits(0) {
					return errWrap("Fits(0) rejected on zero budget")
				}
				return b.Spend(0)
			},
			used: 0, remain: 0,
		},
		{
			name:  "exact fit",
			limit: 100,
			ops: func(b *Budget) error {
				if !b.Fits(100) {
					return errWrap("exact fit rejected")
				}
				return b.Spend(100)
			},
			used: 100, remain: 0,
		},
		{
			name:  "overflow-sized spend does not wrap around",
			limit: 100,
			ops: func(b *Budget) error {
				if err := b.Spend(50); err != nil {
					return err
				}
				if b.Fits(maxI64) {
					return errWrap("Fits(MaxInt64) accepted")
				}
				if err := b.Spend(maxI64); err == nil {
					return errWrap("Spend(MaxInt64) accepted")
				}
				return nil
			},
			used: 50, remain: 50,
		},
		{
			name:  "negative spend rejected",
			limit: 100,
			ops: func(b *Budget) error {
				if err := b.Spend(-1); err == nil {
					return errWrap("negative spend accepted")
				}
				return nil
			},
			used: 0, remain: 100,
		},
		{
			name:  "refund restores budget",
			limit: 100,
			ops: func(b *Budget) error {
				if err := b.Spend(80); err != nil {
					return err
				}
				b.Refund(30)
				return b.Spend(50)
			},
			used: 100, remain: 0,
		},
		{
			name:  "refund floors at zero",
			limit: 100,
			ops: func(b *Budget) error {
				if err := b.Spend(10); err != nil {
					return err
				}
				b.Refund(10000)
				return nil
			},
			used: 0, remain: 100,
		},
		{
			name:  "negative refund is a no-op",
			limit: 100,
			ops: func(b *Budget) error {
				if err := b.Spend(40); err != nil {
					return err
				}
				b.Refund(-5)
				return nil
			},
			used: 40, remain: 60,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBudget(tc.limit)
			if err := tc.ops(b); err != nil {
				t.Fatal(err)
			}
			if b.Used() != tc.used {
				t.Errorf("used = %d, want %d", b.Used(), tc.used)
			}
			if b.Remaining() != tc.remain {
				t.Errorf("remaining = %d, want %d", b.Remaining(), tc.remain)
			}
		})
	}
}

func errWrap(msg string) error { return errors.New(msg) }

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestSpendErrorReportsRemaining(t *testing.T) {
	b := NewBudget(100)
	if err := b.Spend(60); err != nil {
		t.Fatal(err)
	}
	err := b.Spend(50)
	if err == nil {
		t.Fatal("overspend accepted")
	}
	for _, want := range []string{"remaining 40", "limit 100", "used 60"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestCostToHVValues(t *testing.T) {
	b := CostToHV(117e6)
	if b.Dump != 1.17 || b.Network != 1 || b.Load != 0 {
		t.Errorf("CostToHV breakdown = %+v", b)
	}
	if b.Total() != 2.17 {
		t.Errorf("CostToHV total = %v, want 2.17", b.Total())
	}
	if z := CostToHV(0); z.Total() != 0 {
		t.Errorf("zero bytes total = %v", z.Total())
	}
}

func TestBreakdownTotalSumsAllPhases(t *testing.T) {
	b := Breakdown{Dump: 1.5, Network: 2.25, Load: 3.75}
	if b.Total() != 7.5 {
		t.Errorf("Total = %v, want 7.5", b.Total())
	}
	if (Breakdown{}).Total() != 0 {
		t.Error("empty breakdown total nonzero")
	}
}
