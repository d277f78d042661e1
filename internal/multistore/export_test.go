package multistore

import "miso/internal/govern"

// ArmPlanOracle and ServedDraw lend the plan-cache oracle and the served
// draw to the package's external tests.
var (
	ArmPlanOracle = armPlanOracle
	ServedDraw    = servedDraw
)

// KeepLedgers makes s keep the memory ledger of every query it begins;
// the returned function lists them in submission order. Read it only
// after the queries have returned.
func KeepLedgers(s *System) func() []*govern.Ledger {
	var kept []*govern.Ledger
	s.onLedger = func(l *govern.Ledger) { kept = append(kept, l) }
	return func() []*govern.Ledger { return kept }
}
