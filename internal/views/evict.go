package views

import "sort"

// EvictLRU removes least-recently-used views from the set until its total
// size fits budgetBytes, returning the evicted views. Ties prefer evicting
// the larger view; full ties (same LastUsedSeq and size) break by name, so
// the eviction order is fully deterministic. This is the passive policy of
// the HV-OP and MS-LRU system variants.
//
// The set is scanned once and sorted into eviction order, rather than
// rescanned per eviction: evicting k of n views costs O(n log n), not
// O(k·n). Removing a view never changes any other view's rank, so the
// single sorted pass evicts exactly the sequence the per-eviction rescan
// would have.
func EvictLRU(s *Set, budgetBytes int64) []*View {
	return EvictLRUBy(s, budgetBytes, (*View).SizeBytes)
}

// EvictLRUBy is EvictLRU with each view measured by size instead of its
// logical size: the result views of the reuse plane are bounded by the
// memory their tables hold, not by the bytes they stand for.
func EvictLRUBy(s *Set, budgetBytes int64, size func(*View) int64) []*View {
	var total int64
	for _, v := range s.Members() {
		total += size(v)
	}
	if total <= budgetBytes {
		return nil
	}
	all := s.All()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.LastUsedSeq != b.LastUsedSeq {
			return a.LastUsedSeq < b.LastUsedSeq
		}
		if sa, sb := size(a), size(b); sa != sb {
			return sa > sb
		}
		return a.Name < b.Name
	})
	var evicted []*View
	for _, v := range all {
		if total <= budgetBytes {
			break
		}
		s.Remove(v.Name)
		total -= size(v)
		evicted = append(evicted, v)
	}
	return evicted
}
