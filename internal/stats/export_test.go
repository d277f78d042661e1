package stats

// Recorded reports whether the estimator holds a recorded truth under id.
func (e *Estimator) Recorded(id uint64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.cache[id]
	return ok
}

// Len is the number of recorded truths.
func (e *Estimator) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}
