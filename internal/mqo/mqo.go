// Package mqo fingerprints plans: HashPlan folds a normalized logical
// plan's structural id and the content version of every base log it scans
// into one FNV-64a fingerprint, so two plans with equal fingerprints
// compute the same relation over the same data.
//
// The query path no longer uses it: the reuse plane keys its result views
// on node ids (multistore.System.admitResult). What remains is kept only
// for the benchmark's layer probe (bench/probe.go), which times HashPlan
// over a VersionSource of its own. The package is a leaf: it imports only
// logical.
package mqo

import (
	"miso/internal/logical"
)

// Fingerprint identifies a canonical plan over specific base-log content.
// The zero fingerprint is never produced by HashPlan.
type Fingerprint uint64

// VersionSource reports the content version of a base log: a generation,
// which is always 0, and its current line count. A registered log only
// grows (storage.Catalog.AddLog), so the line count alone identifies its
// content over the process lifetime.
type VersionSource interface {
	LogVersion(name string) (gen, lines int, ok bool)
}

// FNV-64a parameters, inlined so fingerprinting allocates nothing.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashUint(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (u >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

// HashPlan returns the canonical fingerprint of a plan: an FNV-64a fold of
// the root's structural id (which stands for its canonical signature —
// sorted conjuncts, sorted join keys; see logical.Node.ID) and the
// (gen, lines) content version of every base log the plan scans. ok
// is false when the plan is not fingerprintable — it reads a view (whose
// content is not identified by base-log versions alone) or scans a log the
// source does not know — and such plans must not be cached or deduplicated.
//
// HashPlan allocates nothing and writes nothing: the id is set when the
// node is built.
func HashPlan(root *logical.Node, src VersionSource) (Fingerprint, bool) {
	if root == nil || src == nil {
		return 0, false
	}
	h := hashUint(fnvOffset64, root.ID())
	h, ok := foldScans(h, root, src)
	if !ok {
		return 0, false
	}
	if h == 0 {
		h = fnvPrime64 // keep the zero fingerprint unreachable
	}
	return Fingerprint(h), true
}

// foldScans folds every Scan leaf's content version into h, pre-order (the
// root's id already names the logs in that order). A ViewScan anywhere
// makes the plan unfingerprintable.
func foldScans(h uint64, n *logical.Node, src VersionSource) (uint64, bool) {
	switch n.Kind {
	case logical.KindViewScan:
		return h, false
	case logical.KindScan:
		gen, lines, ok := src.LogVersion(n.LogName)
		if !ok {
			return h, false
		}
		h = hashUint(h, uint64(gen))
		h = hashUint(h, uint64(lines))
	}
	for _, c := range n.Children {
		var ok bool
		h, ok = foldScans(h, c, src)
		if !ok {
			return h, false
		}
	}
	return h, true
}
