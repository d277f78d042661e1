package exec

// RunReference lets the external test package compare engine output to
// the reference operators in reference_test.go.
var RunReference = runReference
