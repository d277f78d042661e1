package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"miso/internal/views"
)

// reorgFingerprint renders every decision a Reorg carries — both stores'
// final view sets, each movement list, and the transfer total — so two
// Tune outputs can be compared byte-for-byte.
func reorgFingerprint(r *Reorg) string {
	names := func(vs []*views.View) string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.Name
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("hv:[%s] dw:[%s] toDW:[%s] toHV:[%s] drop:[%s] xfer:%d",
		names(r.NewHV.All()), names(r.NewDW.All()),
		names(r.MoveToDW), names(r.MoveToHV), names(r.DropHV), r.TransferBytes)
}

// tuneGolden reads the committed fingerprint of the reorganization
// benchTunerSetup's window must produce. It was recorded from the
// original costing path (Config.BaselineCosting, since deleted), which
// shared no table, memo or rewrite with the path Tune uses now; DESIGN.md
// §11 says how to regenerate it.
func tuneGolden(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile("testdata/tune_reorg.golden")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestTuneDeterministicAcrossWorkerCounts regresses the determinism
// guarantee of the probe table: workers only fill distinct slots of it with
// pure costs, and every accumulation reads them serially in a fixed order,
// so Tune's output must be identical at any worker count — and equal to the
// golden recorded from the original costing path.
func TestTuneDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg, opt, win, cur := benchTunerSetup(t)
	if n := cur.HV.Len(); n < 12 {
		t.Fatalf("universe has %d candidate views, want >= 12", n)
	}
	want := tuneGolden(t)
	for _, w := range []int{1, 2, 8} {
		tuner := NewTuner(cfg, opt)
		tuner.workers = w
		r, err := tuner.Tune(cur, win)
		if err != nil {
			t.Fatalf("tune (workers=%d): %v", w, err)
		}
		if got := reorgFingerprint(r); got != want {
			t.Errorf("workers=%d diverged from testdata/tune_reorg.golden:\n got %s\nwant %s", w, got, want)
		}
	}
}
