package main

import (
	"strings"
	"testing"

	"advhunter/internal/experiments"
)

// TestDispatch drives the subcommand switch table-style: each invocation
// must hit the right handler, produce the right exit code, and route its
// output to the right stream — without os.Exit, which run exists to avoid.
func TestDispatch(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring, "" means no requirement
		wantStderr string
	}{
		{
			name:     "no arguments is a usage error",
			args:     nil,
			wantCode: 2, wantStderr: "commands:",
		},
		{
			name:     "list",
			args:     []string{"list"},
			wantCode: 0, wantStdout: "experiments:",
		},
		{
			name:     "list names every scenario",
			args:     []string{"list"},
			wantCode: 0, wantStdout: "S3",
		},
		{
			name:     "version prints build metadata",
			args:     []string{"version"},
			wantCode: 0, wantStdout: "advhunter ",
		},
		{
			name:     "bad log level is a command failure",
			args:     []string{"train", "-log-level", "loud", "-cache", ""},
			wantCode: 1, wantStderr: "unknown log level",
		},
		{
			name:     "bad log format is a command failure",
			args:     []string{"scan", "-log-format", "xml", "-cache", ""},
			wantCode: 1, wantStderr: "unknown log format",
		},
		{
			name:     "help goes to stdout",
			args:     []string{"help"},
			wantCode: 0, wantStdout: "run 'advhunter <command> -h' for flags.",
		},
		{
			name:     "-h alias",
			args:     []string{"-h"},
			wantCode: 0, wantStdout: "serve",
		},
		{
			name:     "--help alias",
			args:     []string{"--help"},
			wantCode: 0, wantStdout: "commands:",
		},
		{
			name:     "unknown command",
			args:     []string{"frobnicate"},
			wantCode: 2, wantStderr: `unknown command "frobnicate"`,
		},
		{
			name:     "experiment without id fails",
			args:     []string{"experiment"},
			wantCode: 1, wantStderr: "missing -id",
		},
		{
			name:     "experiment with unknown id fails",
			args:     []string{"experiment", "-id", "nope", "-cache", ""},
			wantCode: 1, wantStderr: "nope",
		},
		{
			name:     "subcommand -h exits cleanly",
			args:     []string{"serve", "-h"},
			wantCode: 0, wantStderr: "-detector",
		},
		{
			name:     "bad flag is a command failure",
			args:     []string{"scan", "-definitely-not-a-flag"},
			wantCode: 1, wantStderr: "",
		},
		{
			name:     "serve refuses -quick before loading a model",
			args:     []string{"serve", "-quick"},
			wantCode: 1, wantStderr: "flag provided but not defined: -quick",
		},
		{
			name:     "serve rejects unknown event",
			args:     []string{"serve", "-event", "not-an-event"},
			wantCode: 1, wantStderr: "unknown event",
		},
		{
			name:     "serve rejects unknown tier",
			args:     []string{"serve", "-tier", "warp"},
			wantCode: 1, wantStderr: `unknown tier "warp"`,
		},
		{
			name:     "cluster rejects a policy other than affinity",
			args:     []string{"cluster", "-policy", "roundrobin"},
			wantCode: 1, wantStderr: `unknown policy "roundrobin"`,
		},
		{
			name:     "twin-profile -h lists its flags",
			args:     []string{"twin-profile", "-h"},
			wantCode: 0, wantStderr: "-knots",
		},
		{
			name:     "twin-profile rejects unknown scenario",
			args:     []string{"twin-profile", "-scenario", "S9", "-cache", ""},
			wantCode: 1, wantStderr: "unknown scenario",
		},
		{
			name:     "train rejects unknown scenario",
			args:     []string{"train", "-scenario", "S9", "-cache", ""},
			wantCode: 1, wantStderr: "unknown scenario",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestScanOnCommittedCache runs the README's quickstart command on the
// committed S2 cache: it prints one line per clean image and one per
// committed successful targeted-FGSM example, and it regenerates and writes
// no cache file.
func TestScanOnCommittedCache(t *testing.T) {
	_, missesBefore, writesBefore := experiments.CacheStats()
	var stdout, stderr strings.Builder
	code := run([]string{"scan", "-scenario", "S2", "-n", "10", "-cache", committedCache}, &stdout, &stderr)
	_, missesAfter, writesAfter := experiments.CacheStats()
	if code != 0 {
		t.Fatalf("scan exited %d\nstderr: %s", code, stderr.String())
	}
	if missesAfter != missesBefore || writesAfter != writesBefore {
		t.Fatalf("scan missed %d and wrote %d cache files, want none",
			missesAfter-missesBefore, writesAfter-writesBefore)
	}

	env, err := experiments.LoadEnv("S2", experiments.Options{CacheDir: committedCache})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := env.Attack(experiments.AttackSpec{Kind: "fgsm", Eps: 0.5, Targeted: true}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Meas) == 0 {
		t.Fatal("the committed cache holds no successful targeted-FGSM example")
	}
	images, aes := 0, 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "image "):
			images++
		case strings.HasPrefix(strings.TrimSpace(line), "AE "):
			aes++
		}
	}
	if images != 10 || aes != len(ar.Meas) {
		t.Fatalf("scan printed %d image and %d AE lines, want 10 and %d:\n%s",
			images, aes, len(ar.Meas), stdout.String())
	}
}
