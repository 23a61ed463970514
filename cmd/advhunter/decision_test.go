package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/serve"
	"advhunter/internal/uarch/hpc"
)

// committedCache is the repository's committed experiment cache, seen from
// this package's directory: S1 loads from it without training or measuring.
var committedCache = filepath.Join("..", "..", "artifacts", "cache")

func loadS1(t *testing.T) *experiments.Env {
	t.Helper()
	env, err := experiments.LoadEnv("S1", experiments.Options{CacheDir: committedCache})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestServeEventPicksDecisionChannel: `serve -event instructions` fits a
// detector that decides by the instructions channel, and the served
// "adversarial" verdict is that channel's flag — also on queries the
// cache-misses channel decides the other way.
func TestServeEventPicksDecisionChannel(t *testing.T) {
	env := loadS1(t)
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	dopts, sopts, copts := detectorFlags(fs), serveFlags(fs), commonFlags(fs)
	if err := fs.Parse([]string{"-event", "instructions", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	det, cfg, err := buildServeStack(env, dopts, sopts, copts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Clean test images whose committed readings the two channels disagree
	// on; served at their own index, each is measured the same way.
	ms, err := env.TestMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	var picked []int
	for i, m := range ms {
		if v := det.Detect(m); v.FlaggedBy(hpc.Instructions) != v.FlaggedBy(hpc.CacheMisses) && len(picked) < 4 {
			picked = append(picked, i)
		}
	}
	if len(picked) == 0 {
		t.Fatal("no committed S1 reading tells the instructions rule from the cache-misses rule")
	}

	srv := serve.New(env.Meas, det, cfg)
	disagree := 0
	for _, i := range picked {
		raw, err := json.Marshal(serve.NewRequest(env.Data().Test[i].X, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("image %d: POST /detect = %d: %s", i, rec.Code, rec.Body)
		}
		var resp serve.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		in, cm := resp.Flags[hpc.Instructions.String()], resp.Flags[hpc.CacheMisses.String()]
		if resp.Adversarial != in {
			t.Errorf("image %d: adversarial=%v, instructions flag %v, cache-misses flag %v", i, resp.Adversarial, in, cm)
		}
		if in != cm {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatal("no served query told the two rules apart")
	}
}

// TestServeRefusesArtifactOfAnotherDecision: a -detector artifact fitted to
// decide by cache-misses is refused under -event instructions, naming the
// artifact's channel, and the boot exits non-zero before it listens.
func TestServeRefusesArtifactOfAnotherDecision(t *testing.T) {
	det, err := loadS1(t).Detector()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache-misses.gob")
	if err := detect.Save(path, det); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"serve", "-scenario", "S1", "-cache", committedCache, "-detector", path,
			"-event", "instructions", "-addr", "127.0.0.1:0", "-log-level", "error"}, &stdout, &stderr)
	}()
	select {
	case c := <-code:
		if c != 1 {
			t.Fatalf("boot exited %d, want 1\nstdout: %s\nstderr: %s", c, stdout.String(), stderr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("boot did not exit: it serves a cache-misses artifact under -event instructions")
	}
	if strings.Contains(stdout.String(), "serving") {
		t.Errorf("boot announced a listener before refusing:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "decides by cache-misses") {
		t.Errorf("refusal does not name the artifact's channel:\n%s", stderr.String())
	}
}
