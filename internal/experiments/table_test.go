package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"miso/internal/workload"
)

// modeNamed returns the table's mode of that name.
func modeNamed(t *testing.T, name string) Mode {
	t.Helper()
	for _, m := range Modes {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no mode %q", name)
	return Mode{}
}

// runAtTestScale runs a mode's rows at small scale, after tweak (when set)
// has reshaped them, and renders the report both ways.
func runAtTestScale(t *testing.T, name string, sh Shape, tweak func([]row)) *Report {
	t.Helper()
	c := Small()
	lay, rows, err := modeNamed(t, name).build(c, sh)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(rows)
	}
	rep, err := c.runRows(lay, rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	rep.WriteText(&buf)
	t.Logf("\n%s", buf.String())
	return rep
}

// requirePassed fails unless every named check appears in the report and
// passed on every row that carries it.
func requirePassed(t *testing.T, rep *Report, names ...string) {
	t.Helper()
	for _, name := range names {
		seen := 0
		for _, o := range rep.Rows {
			for _, c := range o.Checks {
				if c.Name != name {
					continue
				}
				seen++
				if !c.Pass {
					t.Errorf("%s %s: %s", o.Row, c.Name, c.Detail)
				}
			}
		}
		if seen == 0 {
			t.Errorf("no row carries check %s", name)
		}
	}
}

// rowNamed returns the outcome of the named row.
func rowNamed(t *testing.T, rep *Report, name string) *Outcome {
	t.Helper()
	for _, o := range rep.Rows {
		if o.Row == name {
			return o
		}
	}
	t.Fatalf("no row %q", name)
	return nil
}

// TestServingHarnessesSmoke runs every mode of the scenario table at test
// scale. Every row exits through the driver's finish, so a hard error, a
// tally or serve accounting breach or a broken catalog invariant fails the
// run itself; each subtest then requires the checks that do not depend on
// the machine's load, and the submission counts the rows' shapes fix.
func TestServingHarnessesSmoke(t *testing.T) {
	nq := len(workload.SQLs())
	for _, tc := range []struct {
		mode string
		long bool // wall-clock bound, or many workload replays: skipped under -short
		run  func(t *testing.T)
	}{
		{"serve", false, func(t *testing.T) {
			rep := runAtTestScale(t, "serve", Shape{Sessions: 4}, func(rows []row) {
				rows[0].phases[0].closed.count = 8
				rows[0].reorgEvery = 10
				if q := rows[0].serve.QueueDepth; q != 8 {
					t.Errorf("soak queue depth %d, want 8", q)
				}
			})
			if m := rep.Rows[0].Serve; m.Submitted != 32 || m.Reorgs != 3 {
				t.Fatalf("submitted %d reorgs %d, want 32 and 3", m.Submitted, m.Reorgs)
			}
		}},
		{"benchgov", false, func(t *testing.T) {
			rep := runAtTestScale(t, "benchgov", Shape{}, nil)
			requirePassed(t, rep, "panic-contained", "panic-survivors-identical", "mem-aborted", "digest-identical")
			storm, panics, mem := rowNamed(t, rep, "storm"), rowNamed(t, rep, "panic"), rowNamed(t, rep, "mem")
			if storm.Serve.Submitted != 32 || panics.Serve.Submitted != nq || mem.Phases[0].Submitted != 8 {
				t.Fatalf("submitted %d/%d/%d, want 32/%d/8", storm.Serve.Submitted, panics.Serve.Submitted, mem.Phases[0].Submitted, nq)
			}
		}},
		{"crash", false, func(t *testing.T) {
			rep := runAtTestScale(t, "crash", Shape{}, nil)
			requirePassed(t, rep, "completed", "recovered", "replayed", "clean", "torn", "quarantined")
			crashes := 0
			for _, o := range rep.Rows {
				crashes += o.Recovery.Crashes
			}
			if len(rep.Rows) != len(crashCases) || crashes == 0 {
				t.Fatalf("%d rows crashed %d times, want %d rows and some crashes", len(rep.Rows), crashes, len(crashCases))
			}
		}},
		{"cache", false, func(t *testing.T) {
			rep := runAtTestScale(t, "cache", Shape{Sessions: 2}, nil)
			// The 2x speedup gate is wall-clock dependent and wobbles at test
			// scale under -race; misobench enforces it. Here reuse must at
			// least not slow the soak down.
			requirePassed(t, rep, "all-served", "hit-rate", "digests-match", "reorg-cleared")
			off, on := rowNamed(t, rep, "reuse-off"), rowNamed(t, rep, "reuse-on")
			if off.Phases[0].Seconds < on.Phases[0].Seconds {
				t.Fatalf("reuse made the soak slower: %.2fs off, %.2fs on", off.Phases[0].Seconds, on.Phases[0].Seconds)
			}
		}},
		{"endurance", true, func(t *testing.T) {
			rep := runAtTestScale(t, "endurance", Shape{Sessions: 60, Queries: 80, Dur: 90 * time.Second}, nil)
			// goodput-bound and horizon depend on the machine's load.
			requirePassed(t, rep, "rot-exercised", "rot-repaired", "zero-unrepaired", "final-pass-clean")
		}},
		{"chaos", true, func(t *testing.T) {
			defer func(rates []float64) { ChaosRates = rates }(ChaosRates)
			ChaosRates = []float64{0, 0.05}
			rep := runAtTestScale(t, "chaos", Shape{}, nil)
			requirePassed(t, rep, "completed", "served", "recovered", "replayed", "clean", "final-pass-clean")
			kinds := map[string]int{}
			for _, o := range rep.Rows {
				kinds[o.Desc]++
				if o.Desc == "govern" && o.Serve.Submitted != 64 {
					t.Errorf("%s: %d submissions, want 64", o.Row, o.Serve.Submitted)
				}
			}
			if fmt.Sprint(kinds) != "map[audit:2 crash:2 govern:2 seq:4 serve:2]" {
				t.Errorf("row kinds %v", kinds)
			}
		}},
		{"scenarios", true, func(t *testing.T) {
			// Every verdict here is a goodput or shed ratio, which depends on
			// the machine; the run itself proves the accounting.
			rep := runAtTestScale(t, "scenarios", Shape{Dur: 400 * time.Millisecond}, nil)
			if len(rep.Rows) != 6 {
				t.Fatalf("%d scenarios, want 6", len(rep.Rows))
			}
			// Offered rates are multiples of the calibrated capacity.
			for _, o := range rep.Rows {
				if o.Phases[0].OfferedQPS <= 0 {
					t.Errorf("%s offers %.1f q/s", o.Row, o.Phases[0].OfferedQPS)
				}
			}
		}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("long")
			}
			tc.run(t)
		})
	}
}

// TestCheckNamesAreUniqueWithinAMode: a report line names its row and its
// check, so within a mode every row name and, per row, every check name
// must be unique.
func TestCheckNamesAreUniqueWithinAMode(t *testing.T) {
	for _, m := range Modes {
		_, rows, err := m.build(Small(), Shape{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			if seen[r.name] {
				t.Errorf("%s: row %q twice", m.Name, r.name)
			}
			seen[r.name] = true
			for _, c := range r.checks {
				key := r.name + " " + c.name
				if seen[key] {
					t.Errorf("%s: check %q twice", m.Name, key)
				}
				seen[key] = true
			}
		}
	}
}

// TestAFailedCheckFailsTheReport: Passed is the conjunction of every check.
func TestAFailedCheckFailsTheReport(t *testing.T) {
	rep := &Report{Rows: []*Outcome{
		{Row: "a", Checks: []Check{{Name: "x", Pass: true}}},
		{Row: "b", Checks: []Check{{Name: "x", Pass: true}, {Name: "y", Pass: false, Detail: "why"}}},
	}}
	if rep.Passed() {
		t.Fatal("a report with a failed check passed")
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("FAIL  b y: why")) {
		t.Fatalf("report does not print the failed check:\n%s", buf.String())
	}
	rep.Rows[1].Checks[1].Pass = true
	if !rep.Passed() {
		t.Fatal("a report whose checks all passed failed")
	}
}
