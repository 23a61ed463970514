package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestObserve: observe builds the flight recorder and the alert engine only
// when the flags ask, mounts their endpoints beside the served handler, and
// registers the alert gauges on the first registry — on a cluster the
// router's, so they carry no replica label.
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
		fs := flag.NewFlagSet("observe", flag.ContinueOnError)
		opts := serveFlags(fs)
		if err := fs.Parse(args); err != nil {
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
		get, stop := boot(t, nil, s.Handler(), s.Registry())
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

	t.Run("flight and alerts mount both", func(t *testing.T) {
		s := build(0)
		defer s.Shutdown(context.Background())
		get, stop := boot(t, []string{"-flight=-1s", "-alerts"}, s.Handler(), s.Registry())
		defer stop()
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
		// Background loops, so stop has goroutines to halt.
		get, stop := boot(t, []string{"-flight=1ms", "-alerts", "-alert-interval=1ms"},
			c.Handler(), c.Registries()...)
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
