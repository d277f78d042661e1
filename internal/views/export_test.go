package views

// MatchNode and BestMatchReference let the external test package compare
// Set.BestMatch to the reference matcher in reference_test.go.
var (
	MatchNode          = matchNode
	BestMatchReference = bestMatchReference
)
