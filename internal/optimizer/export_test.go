package optimizer

// SetPlanCap lowers the frontiers enumerated per query below planCap, for
// the tests that need a short enumeration.
func (o *Optimizer) SetPlanCap(n int) { o.maxPlans = n }
