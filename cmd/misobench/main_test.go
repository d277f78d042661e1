package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"miso/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all_small.golden")

// TestMain lets the tests below re-execute this test binary as the
// command itself: with MISO_RUN_MAIN set it runs main() on the given
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("MISO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and what
// it printed.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	return runMainIn(t, "", args...)
}

// runMainIn is runMain with the command's working directory set.
func runMainIn(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "MISO_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestAllSmallMatchesGolden: every paper figure and table at small scale
// prints exactly testdata/all_small.golden, apart from the per-mode
// "[... done in ... wall clock]" lines. The output is deterministic across
// runs and worker counts, so any difference is a change in a simulated
// time, a plan or a design. -update rewrites the golden.
func TestAllSmallMatchesGolden(t *testing.T) {
	code, out := runMain(t, "-all", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit code %d; output:\n%s", code, out)
	}
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, " wall clock]") {
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "")
	const path = "testdata/all_small.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("-all -scale small diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("-all -scale small printed %d lines, %s holds %d", len(gl), path, len(wl))
	}
}

// TestNegativeExecWorkersIsUsageError: -execworkers < 0 once selected a
// serial engine; it must now be rejected at the flag, not clamped to one
// worker further down.
func TestNegativeExecWorkersIsUsageError(t *testing.T) {
	code, out := runMain(t, "-mode", "fig4", "-scale", "small", "-execworkers", "-1")
	if code != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-execworkers") || !strings.Contains(out, "Usage") {
		t.Fatalf("output lacks a usage error naming -execworkers:\n%s", out)
	}
}

// TestRemovedSpellingsAreUsageErrors: the shorthand flags that duplicated
// -mode are gone, so the flag package rejects each with its usage error.
func TestRemovedSpellingsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "4"}, {"-table", "2"}, {"-chaos"}, {"-crash"}, {"-serve"}, {"-bench"},
		{"-benchexec"}, {"-benchgov"}, {"-scenarios"}, {"-endurance"},
		{"-benchexecout", "x.json"}, {"-execgate"},
		// Folded into -out, -sessions and -dur.
		{"-benchout", "x.json"}, {"-benchgovout", "x.json"}, {"-scenariosout", "x.json"},
		{"-cacheout", "x.json"}, {"-enduranceout", "x.json"},
		{"-cachesessions", "2"}, {"-endurancetenants", "2"}, {"-phasedur", "1s"}, {"-endurancedur", "1s"},
		// Passed by nobody: the soak and the endurance run keep their defaults.
		{"-squeries", "1"}, {"-timeout", "1s"}, {"-reorgevery", "1"}, {"-endurancereorgs", "1"},
		// One value each: every row of the scenario table carries its own.
		{"-workers", "4"}, {"-queue", "8"}, {"-cacherounds", "1"},
	} {
		code, out := runMain(t, args...)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit code %d, output:\n%s", args, code, out)
		}
	}
	// So are the modes whose numbers moved to make microbench and bench/;
	// the ablations the root benchmarks carried are a mode now.
	for _, m := range []string{"benchexec", "bench"} {
		if code, out := runMain(t, "-mode", m); code != 2 || !strings.Contains(out, "unknown mode") {
			t.Errorf("-mode %s: exit code %d, output:\n%s", m, code, out)
		}
	}
	if code, out := runMain(t, "-modes"); code != 0 || !strings.Contains(out, "\nablate ") || strings.Contains(out, "\nbench ") {
		t.Errorf("-modes: exit code %d, want ablate listed and bench not:\n%s", code, out)
	}
}

// TestArtifactsAreWrittenOnlyUnderOut: a mode with a JSON artifact writes
// nothing unless -out names a directory (so a local run cannot overwrite
// the committed BENCH_*.json), and with -out writes it there under the
// name -modes lists. The soak's 2x gate depends on the machine, so the
// exit code is not asserted.
func TestArtifactsAreWrittenOnlyUnderOut(t *testing.T) {
	cwd, outDir := t.TempDir(), t.TempDir()
	_, out := runMainIn(t, cwd, "-mode", "cache", "-scale", "small", "-sessions", "2")
	if !strings.Contains(out, "cache soak") || strings.Contains(out, "wrote ") {
		t.Fatalf("unexpected output without -out:\n%s", out)
	}
	if left, _ := os.ReadDir(cwd); len(left) != 0 {
		t.Fatalf("run without -out left %d files behind, first %s", len(left), left[0].Name())
	}

	_, out = runMainIn(t, cwd, "-mode", "cache", "-scale", "small", "-sessions", "2", "-out", outDir)
	art, err := os.ReadFile(filepath.Join(outDir, "BENCH_cache.json"))
	if err != nil {
		t.Fatalf("%v; output:\n%s", err, out)
	}
	if !strings.Contains(string(art), `"scale": "small"`) || !strings.Contains(string(art), `"sessions": 2`) {
		t.Fatalf("artifact lacks the small scale or the -sessions value:\n%s", art)
	}
	if left, _ := os.ReadDir(cwd); len(left) != 0 {
		t.Fatalf("run with -out wrote into the working directory too")
	}
}

// TestAFailedCheckFailsTheMode: runMode returns an error — which main turns
// into exit 1 — when one check of one row of the report failed.
func TestAFailedCheckFailsTheMode(t *testing.T) {
	rep := &experiments.Report{Rows: []*experiments.Outcome{{Row: "r", Checks: []experiments.Check{
		{Name: "holds", Pass: true}, {Name: "breaks", Pass: false, Detail: "planted"},
	}}}}
	m := mode{name: "planted", run: func(experiments.Config) (report, error) { return rep, nil }}
	if err := runMode(m, experiments.Small(), ""); err == nil {
		t.Fatal("runMode passed a report with a failed check")
	}
	rep.Rows[0].Checks[1].Pass = true
	if err := runMode(m, experiments.Small(), ""); err != nil {
		t.Fatalf("runMode failed a report whose checks all passed: %v", err)
	}
}

// TestAFailedModeHidesNoLaterMode: a mode that fails does not stop the run.
// Every mode after it still runs, and the exit status is still 1.
func TestAFailedModeHidesNoLaterMode(t *testing.T) {
	failing := &experiments.Report{Rows: []*experiments.Outcome{{Row: "r", Checks: []experiments.Check{
		{Name: "breaks", Pass: false, Detail: "planted"},
	}}}}
	ran := false
	modes := []mode{
		{name: "first", run: func(experiments.Config) (report, error) { return failing, nil }},
		{name: "second", run: func(experiments.Config) (report, error) {
			ran = true
			return &experiments.Report{}, nil
		}},
	}
	if code := runModes(modes, experiments.Small(), ""); code != 1 {
		t.Fatalf("exit status %d after a failed mode, want 1", code)
	}
	if !ran {
		t.Fatal("the mode after a failed one never ran")
	}
	if code := runModes(modes[1:], experiments.Small(), ""); code != 0 {
		t.Fatalf("exit status %d with every mode passing, want 0", code)
	}
}
