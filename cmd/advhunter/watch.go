package main

// `advhunter watch` — a terminal dashboard over a running serve or cluster
// instance. It polls the plain HTTP surfaces every instance already exposes
// (/metrics, /debug/flight, /alerts, /debug/trace), so it needs no agent in
// the target process and works identically against a single server or a
// cluster router (where the merged pages aggregate the fleet).

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"advhunter/internal/obs"
	"advhunter/internal/workload"
)

func cmdWatch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the serve or cluster instance to watch")
	interval := fs.Duration("interval", 2*time.Second, "poll cadence")
	count := fs.Int("count", 0, "frames to render before exiting (0 = until interrupted)")
	window := fs.Duration("window", time.Minute, "flight-recorder window for rates and latency quantiles")
	traces := fs.Int("traces", 5, "recent request traces to show (0 hides the section)")
	plain := fs.Bool("plain", false, "append frames instead of redrawing in place (for logs and pipes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*target, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	for frame := 1; ; frame++ {
		f, err := pollFrame(client, base, *window, *traces)
		if err != nil {
			// A dead target on the first frame is a usage problem; later it
			// is a restart or drain in progress — keep watching.
			if frame == 1 {
				return fmt.Errorf("polling %s: %w", base, err)
			}
			fmt.Fprintf(stderr, "watch: %v (retrying)\n", err)
		} else {
			if !*plain && frame > 1 {
				fmt.Fprint(stdout, "\x1b[H\x1b[2J") // home + clear: redraw in place
			}
			renderFrame(stdout, base, frame, f)
		}
		if *count > 0 && frame >= *count {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// watchFrame is one poll of the target's observability surfaces. The flight,
// alert and trace sections are optional — a target running with those
// surfaces off just yields a smaller dashboard.
type watchFrame struct {
	snap   workload.Snapshot
	flight *flightView
	alerts []obs.AlertView
	traces []obs.TraceView
}

// flightView decodes the subset of /debug/flight the dashboard renders.
type flightView struct {
	WindowSecs  float64                       `json:"window_seconds"`
	SeriesCount int                           `json:"series_count"`
	Rates       map[string]float64            `json:"rates"`
	Quantiles   map[string]map[string]float64 `json:"quantiles"`
}

func pollFrame(client *http.Client, base string, window time.Duration, traces int) (watchFrame, error) {
	var f watchFrame
	snap, err := workload.Scrape(client, base)
	if err != nil {
		return f, err
	}
	f.snap = snap

	// The debug surfaces are opt-in on the target; a 404 means "off", not
	// "broken", so each one degrades to a hidden section.
	var fv flightView
	if getJSON(client, fmt.Sprintf("%s/debug/flight?window=%s", base, window), &fv) == nil {
		f.flight = &fv
	}
	var ap struct {
		Alerts []obs.AlertView `json:"alerts"`
	}
	if getJSON(client, base+"/alerts", &ap) == nil {
		f.alerts = ap.Alerts
	}
	if traces > 0 {
		var tp struct {
			Traces []obs.TraceView `json:"traces"`
		}
		if getJSON(client, fmt.Sprintf("%s/debug/trace?last=%d", base, traces), &tp) == nil {
			f.traces = tp.Traces
		}
	}
	return f, nil
}

// getJSON fetches url and decodes a 200 JSON body into v; any non-200 status
// is an error so optional surfaces fall away cleanly.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func renderFrame(w io.Writer, base string, frame int, f watchFrame) {
	fmt.Fprintf(w, "advhunter watch — %s   frame %d   %s\n\n", base, frame, time.Now().Format(time.RFC3339))

	// Traffic: lifetime totals from /metrics, live rates and latency from the
	// flight recorder when the target runs one.
	requests := f.snap.Sum("advhunter_requests_total")
	scans := f.snap.Sum("advhunter_scans_total")
	flagged := f.snap.Sum("advhunter_flagged_total")
	fmt.Fprintln(w, "traffic")
	line := fmt.Sprintf("  requests %.0f", requests)
	if f.flight != nil {
		if rate, ok := f.flight.Rates["advhunter_requests_total"]; ok {
			line += fmt.Sprintf("   %.1f req/s over %.0fs", rate, f.flight.WindowSecs)
		}
	}
	fmt.Fprintln(w, line)
	if scans > 0 {
		fmt.Fprintf(w, "  scans    %.0f   flagged %.0f (%.1f%%)\n", scans, flagged, 100*flagged/scans)
	}
	if codes := sumByLabel(f.snap, "advhunter_requests_total", "code"); len(codes) > 0 {
		fmt.Fprintf(w, "  by code  %s\n", codes)
	}
	if f.flight != nil {
		if q, ok := f.flight.Quantiles["advhunter_request_duration_seconds"]; ok {
			fmt.Fprintf(w, "  latency  p50 %s  p90 %s  p99 %s\n",
				ms(q["p50"]), ms(q["p90"]), ms(q["p99"]))
		}
		fmt.Fprintf(w, "  flight   %d series recorded\n", f.flight.SeriesCount)
	} else {
		fmt.Fprintln(w, "  flight   recorder off (-flight to enable)")
	}

	fmt.Fprintln(w, "\nalerts")
	if f.alerts == nil {
		fmt.Fprintln(w, "  alerting off (-flight with -alerts to enable)")
	}
	for _, a := range f.alerts {
		state := a.State
		if state == obs.AlertFiring {
			state = strings.ToUpper(state)
		}
		ready := ""
		if !a.Ready {
			ready = "  (warming up)"
		}
		fmt.Fprintf(w, "  %-8s %-14s value %.4g  threshold %.4g  fired %d%s\n",
			state, a.Rule, a.Value, a.Threshold, a.FiredTotal, ready)
	}

	if f.traces != nil {
		fmt.Fprintln(w, "\nrecent traces")
		for _, t := range f.traces {
			extra := ""
			if t.Tier != "" {
				extra += " tier=" + t.Tier
			}
			if t.Verdict != "" {
				extra += " verdict=" + t.Verdict
			}
			if t.CacheHit {
				extra += " cache=hit"
			}
			fmt.Fprintf(w, "  %-12s %3d  %8s total  %7s queued%s\n",
				t.ID, t.Status, ms(t.TotalMs/1000), ms(t.QueueWaitMs/1000), extra)
		}
		if len(f.traces) == 0 {
			fmt.Fprintln(w, "  (no traces yet)")
		}
	}
}

// sumByLabel folds every series of family by one label's value — e.g. request
// counts by status code across all replicas — rendered "200=41 429=1".
func sumByLabel(snap workload.Snapshot, family, label string) string {
	totals := map[string]float64{}
	needle := label + `="`
	for key, v := range snap {
		if !strings.HasPrefix(key, family+"{") {
			continue
		}
		i := strings.Index(key, needle)
		if i < 0 {
			continue
		}
		rest := key[i+len(needle):]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		totals[rest[:j]] += v
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.0f", k, totals[k])
	}
	return strings.Join(parts, "  ")
}

// ms renders a duration given in seconds as adaptive milliseconds.
func ms(seconds float64) string {
	m := seconds * 1000
	switch {
	case m != m: // NaN: quantile not ready yet
		return "—"
	case m >= 100:
		return fmt.Sprintf("%.0fms", m)
	default:
		return fmt.Sprintf("%.1fms", m)
	}
}
