package multistore

// ArmPlanOracle and ServedDraw lend the plan-cache oracle and the served
// draw to the package's external tests.
var (
	ArmPlanOracle = armPlanOracle
	ServedDraw    = servedDraw
)
