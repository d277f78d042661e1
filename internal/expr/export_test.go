package expr

// SetFallbackHook installs fn as the observer of every node CompileBatch
// hands to the row evaluator and returns a function that removes it.
func SetFallbackHook(fn func(Expr)) (restore func()) {
	fallbackHook = fn
	return func() { fallbackHook = nil }
}
