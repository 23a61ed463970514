package main

import (
	"strings"
	"testing"
)

// TestRejectsNonPositiveRepeats: a repeat count below one is a usage error
// reported before the scenario loads. With -cache "" a load would train the
// model, so the test finishing quickly shows the check runs first.
func TestRejectsNonPositiveRepeats(t *testing.T) {
	for _, repeats := range []string{"0", "-3"} {
		t.Run(repeats, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run([]string{"-repeats", repeats, "-cache", ""}, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "-repeats must be at least 1") {
				t.Fatalf("stderr lacks the reason:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}
