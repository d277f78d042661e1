package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MISO_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestNegativeExecWorkersIsUsageError: -execworkers < 0 once selected a
// serial engine; it must now be rejected at the flag, not clamped to one
// worker further down.
func TestNegativeExecWorkersIsUsageError(t *testing.T) {
	code, out := runMain(t, "-name", "A1v1", "-execworkers", "-1")
	if code != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-execworkers") || !strings.Contains(out, "Usage") {
		t.Fatalf("output lacks a usage error naming -execworkers:\n%s", out)
	}
}
