package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/experiments"
	"advhunter/internal/models"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/uarch/hpc"
)

// parseServeFlags parses args into a fresh serving flag surface.
func parseServeFlags(t *testing.T, args ...string) serveOpts {
	t.Helper()
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestServeOptsValidateObservability: the flight recorder has one cadence
// and the alert rules are evaluated on it, so a negative -flight and
// -alerts without a positive -flight are rejected before any model loads.
func TestServeOptsValidateObservability(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-flight=1s"}, true},
		{[]string{"-flight=1s", "-alerts"}, true},
		{[]string{"-flight=-1s"}, false},
		{[]string{"-alerts"}, false},
		{[]string{"-alerts", "-flight=0"}, false},
	} {
		if err := parseServeFlags(t, tc.args...).validate(); (err == nil) != tc.ok {
			t.Errorf("validate(%v) = %v, want ok %t", tc.args, err, tc.ok)
		}
	}
}

// TestServeOptsValidateAdmission: a -queue below 1 and a non-positive
// -timeout are rejected before any model loads, rather than silently served
// with the defaults.
func TestServeOptsValidateAdmission(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-queue=1"}, true},
		{[]string{"-timeout=1ms"}, true},
		{[]string{"-queue=0"}, false},
		{[]string{"-queue=-3"}, false},
		{[]string{"-timeout=0"}, false},
		{[]string{"-timeout=-1s"}, false},
	} {
		if err := parseServeFlags(t, tc.args...).validate(); (err == nil) != tc.ok {
			t.Errorf("validate(%v) = %v, want ok %t", tc.args, err, tc.ok)
		}
	}
}

// obsGoroutines counts the running goroutines that package obs started.
func obsGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by advhunter/internal/obs.")
}

// TestObserve: observe builds the flight recorder and the alert engine only
// when the flags ask, mounts their endpoints beside the served handler, runs
// both on one loop, and registers the alert gauges on the first registry —
// on a cluster the router's, so they carry no replica label.
func TestObserve(t *testing.T) {
	ds := data.MustSynth("fashionmnist", 99, 24, 1)
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 9)
	env := &experiments.Env{Meas: core.NewMeasurer(engine.NewDefault(m), 4321)}
	tpl := core.BuildTemplate(env.Meas.Clone(), ds.Train, ds.Classes, hpc.CoreEvents())
	det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := replicaBuilder(env, det, serve.Config{Workers: 1})

	// boot mounts handler and observability on one mux, as cmdServe and
	// cmdCluster do, and returns a GET helper (status, body) and stop.
	boot := func(t *testing.T, args []string, handler http.Handler, regs ...*obs.Registry) (func(string) (int, string), func()) {
		t.Helper()
		opts := parseServeFlags(t, args...)
		if err := opts.validate(); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		stop := opts.observe(mux, nil, regs...)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		get := func(path string) (int, string) {
			t.Helper()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return resp.StatusCode, string(body)
		}
		return get, stop
	}

	t.Run("default flags mount nothing", func(t *testing.T) {
		s := build(0)
		defer s.Shutdown(context.Background())
		before := obsGoroutines()
		get, stop := boot(t, nil, s.Handler(), s.Registry())
		if n := obsGoroutines() - before; n != 0 {
			t.Errorf("observe started %d obs goroutines with default flags, want 0", n)
		}
		for _, path := range []string{"/debug/flight", "/alerts"} {
			if code, _ := get(path); code != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", path, code)
			}
		}
		if _, metrics := get("/metrics"); strings.Contains(metrics, "advhunter_alert_") {
			t.Errorf("alert series registered with -alerts off:\n%s", metrics)
		}
		stop()
		stop()
	})

	t.Run("flight samples traffic sent after boot", func(t *testing.T) {
		s := build(0)
		defer s.Shutdown(context.Background())
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		stop := parseServeFlags(t, "-flight=5ms").observe(mux, nil, s.Registry())
		defer stop()
		ts := httptest.NewServer(mux)
		defer ts.Close()

		raw, err := json.Marshal(serve.NewRequest(ds.Test[0].X, 0))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /detect = %d", resp.StatusCode)
		}
		// Only /debug/flight is queried: the loop alone must pick the
		// request up.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get(ts.URL + "/debug/flight?window=30s")
			if err != nil {
				t.Fatal(err)
			}
			var page struct {
				Rates map[string]float64 `json:"rates"`
			}
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if page.Rates["advhunter_requests_total"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("/debug/flight never showed the request: rates %v", page.Rates)
			}
		}
	})

	t.Run("flight and alerts mount both", func(t *testing.T) {
		s := build(0)
		defer s.Shutdown(context.Background())
		before := obsGoroutines()
		get, stop := boot(t, []string{"-flight=1h", "-alerts"}, s.Handler(), s.Registry())
		defer stop()
		if n := obsGoroutines() - before; n != 1 {
			t.Errorf("observe started %d obs goroutines, want 1", n)
		}
		for path, want := range map[string]string{
			"/debug/flight": `"series_count"`,
			"/alerts":       `"detect-drift"`,
			"/metrics":      `advhunter_alert_active{rule="detect-drift"} 0`,
		} {
			if code, body := get(path); code != http.StatusOK || !strings.Contains(body, want) {
				t.Errorf("GET %s = %d, missing %q:\n%s", path, code, want, body)
			}
		}
	})

	t.Run("cluster gauges carry no replica label", func(t *testing.T) {
		c := cluster.New(cluster.Config{Replicas: 2}, build)
		// A running loop, so stop has a goroutine to halt.
		get, stop := boot(t, []string{"-flight=1ms", "-alerts"}, c.Handler(), c.Registries()...)
		_, metrics := get("/metrics")
		var alertLines int
		for _, line := range strings.Split(metrics, "\n") {
			if !strings.HasPrefix(line, "advhunter_alert_") {
				continue
			}
			alertLines++
			if strings.Contains(line, "replica=") {
				t.Errorf("alert series carries a replica label: %s", line)
			}
		}
		if want := 2 * len(serve.DefaultAlertRules()); alertLines != want {
			t.Errorf("%d alert series, want %d (active and fired per rule):\n%s", alertLines, want, metrics)
		}
		if err := c.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		stop()
		stop()
	})
}
