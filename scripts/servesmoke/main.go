// Command servesmoke is the verify-script smoke test for the serving path:
// it launches a built advhunter binary as a real child process, waits for the
// listener announcement, scrapes /metrics (holding the output to the strict
// exposition linter and to a multi-layer series checklist), pulls a pprof
// heap profile, POSTs a burst of the scenario's test images (each must answer
// 200), holds the stage histogram to the tier counters, and then checks the
// SIGTERM drain path exits cleanly. It then repeats
// the exercise against `advhunter cluster` with two replicas, asserting the
// merged /metrics page lints and carries replica-labelled serve series plus
// the cluster's own routing counters.
//
// It runs against scenario S1, whose model and validation measurements are
// committed under artifacts/cache, so startup is seconds, not minutes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"advhunter/internal/experiments"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/workload"
)

func main() {
	bin := flag.String("bin", "", "path to the built advhunter binary")
	scenario := flag.String("scenario", "S1", "scenario to serve")
	flag.Parse()
	bodies, err := burstBodies(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		os.Exit(1)
	}
	if err := run(*bin, *scenario, bodies); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		os.Exit(1)
	}
	if err := runCluster(*bin, *scenario, bodies); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: cluster: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: OK")
}

func run(bin, scenario string, bodies [][]byte) error {
	if bin == "" {
		return fmt.Errorf("missing -bin (path to the advhunter binary)")
	}
	cmd, base, err := start(bin, "serve",
		"-scenario", scenario,
		"-addr", "127.0.0.1:0", // kernel-assigned port, parsed from the announcement
		"-workers", "2",
		"-tier", "auto", // exercises the twin-table load (or profile) path too
		"-pprof",
		// The observability stack: a flight recorder sampled every 100 ms,
		// the stock alert rules evaluated on each sample, and a trace ring.
		"-flight=100ms", "-trace-ring", "64", "-alerts",
		"-log-format", "json", "-log-level", "info",
		"-v")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill() // no-op if the process already exited

	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	if len(metrics) == 0 {
		return fmt.Errorf("/metrics returned an empty body")
	}
	if err := obs.Lint(metrics); err != nil {
		return fmt.Errorf("/metrics failed the exposition linter: %w\n%s", err, metrics)
	}
	// One scrape must carry series from every layer: build metadata, the
	// admission queue, the replica pool, the experiment cache the server
	// loaded its model through, and — because the server runs tier auto —
	// the tiered-serving counters (pre-resolved handles render even at zero,
	// so they must appear before any request arrives).
	for _, want := range []string{
		"advhunter_build_info",
		"advhunter_queue_capacity",
		"advhunter_pool_workers 2",
		`advhunter_cache_ops_total{op="hit"}`,
		`advhunter_tier_requests_total{tier="twin"}`,
		"advhunter_tier_escalations_total",
		"advhunter_twin_table_bytes",
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	heap, err := get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}
	if len(heap) == 0 {
		return fmt.Errorf("/debug/pprof/heap returned an empty body")
	}

	build, err := get(base + "/debug/build")
	if err != nil {
		return err
	}
	if !strings.Contains(string(build), "go_version") {
		return fmt.Errorf("/debug/build body %q missing go_version", build)
	}

	if err := burst(base, bodies); err != nil {
		return err
	}
	if err := checkStageCounts(base); err != nil {
		return err
	}
	if err := obsSmoke(bin, base); err != nil {
		return err
	}
	return drain(cmd)
}

// start launches `bin args...` (args[0] is the subcommand), echoes its
// stdout, and waits up to 2m for its listen announcement. It returns the
// running child and the base URL it announced; the caller must kill it.
func start(bin string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("starting %s %s: %w", bin, args[0], err)
	}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if addr, ok := parseAddr(line); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()

	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr, nil
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		return nil, "", fmt.Errorf("%s did not announce its address within 2m", args[0])
	}
}

// drain is the graceful-drain check on a child start launched, named in
// errors by its subcommand: SIGTERM must produce a clean exit within 1m.
func drain(cmd *exec.Cmd) error {
	name := cmd.Args[1]
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exited uncleanly after SIGTERM: %w", name, err)
		}
	case <-time.After(time.Minute):
		return fmt.Errorf("%s did not exit within 1m of SIGTERM", name)
	}
	return nil
}

// checkStageCounts holds the auto-tier server's stage histogram to its tier
// counters after the burst: one twin-measure stage per screened request and
// one exact measure stage per escalation (an absent series reads as 0).
func checkStageCounts(base string) error {
	snap, err := workload.Scrape(nil, base)
	if err != nil {
		return err
	}
	if snap.Get("advhunter_tier_screened_total") == 0 {
		return fmt.Errorf("the burst screened no request on the twin")
	}
	for _, c := range []struct{ stage, counter string }{
		{"twin-measure", "advhunter_tier_screened_total"},
		{"measure", "advhunter_tier_escalations_total"},
	} {
		got := snap.Get(`advhunter_stage_duration_seconds_count{stage="` + c.stage + `"}`)
		if want := snap.Get(c.counter); got != want {
			return fmt.Errorf("%g %s stages, but %s = %g", got, c.stage, c.counter, want)
		}
	}
	return nil
}

// obsSmoke exercises the observability surfaces after the burst: the
// flight recorder page (whose sampling loop must have picked the burst up),
// the request-trace ring (the burst must have left traces carrying request
// ids), the alerts page with the stock rules' exact descriptions, and one
// frame of `advhunter watch` — the operator dashboard driven purely over
// HTTP.
func obsSmoke(bin, base string) error {
	flight, err := awaitFlightRate(base)
	if err != nil {
		return err
	}
	for _, want := range []string{`"series_count"`, "advhunter_requests_total"} {
		if !strings.Contains(string(flight), want) {
			return fmt.Errorf("/debug/flight missing %q:\n%s", want, flight)
		}
	}
	traces, err := get(base + "/debug/trace?last=5")
	if err != nil {
		return err
	}
	for _, want := range []string{`"traces"`, `"id"`, `"stages"`} {
		if !strings.Contains(string(traces), want) {
			return fmt.Errorf("/debug/trace missing %q:\n%s", want, traces)
		}
	}
	if err := checkAlerts(base); err != nil {
		return err
	}
	// A /detect probe must echo the caller's request id so traces and logs
	// can be joined to the edge's — the id-propagation contract over HTTP.
	resp, err := http.Post(base+"/detect", "application/json", strings.NewReader("{}"))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		return fmt.Errorf("/detect response carries no X-Request-ID header")
	}

	watch := exec.Command(bin, "watch", "-target", base, "-count", "1", "-plain", "-traces", "3")
	watch.Stderr = os.Stderr
	out, err := watch.Output()
	if err != nil {
		return fmt.Errorf("watch against %s: %w", base, err)
	}
	for _, want := range []string{"traffic", "alerts", "detect-drift", "recent traces"} {
		if !strings.Contains(string(out), want) {
			return fmt.Errorf("watch frame missing %q:\n%s", want, out)
		}
	}
	fmt.Println("servesmoke: obs surfaces OK (/debug/flight /debug/trace /alerts, watch frame rendered)")
	return nil
}

// runCluster boots a 2-replica cluster as a child process, fires the burst
// at it, and lints the merged /metrics page: every replica's serve
// series must appear under its replica label alongside the cluster's own
// routing counters, with one family block per name (the linter rejects the
// duplicated HELP/TYPE blocks a naive multi-registry concatenation would
// produce). The exact tier keeps the second boot fast; the tiered series are
// already covered by the single-server pass.
func runCluster(bin, scenario string, bodies [][]byte) error {
	cmd, base, err := start(bin, "cluster",
		"-scenario", scenario,
		"-addr", "127.0.0.1:0",
		"-replicas", "2",
		"-policy", "affinity", // the routing path that reads request bodies
		"-workers", "1",
		"-tier", "exact",
		// Cluster-level observability: the router's flight recorder spans
		// every replica registry, replicas keep trace rings the merged
		// /debug/trace page reads, and the alert engine judges fleet totals.
		"-flight=100ms", "-trace-ring", "16", "-alerts",
		"-log-format", "json", "-log-level", "info",
		"-v")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill() // no-op if the process already exited

	if err := burst(base, bodies); err != nil {
		return err
	}

	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	if err := obs.Lint(metrics); err != nil {
		return fmt.Errorf("cluster /metrics failed the exposition linter: %w\n%s", err, metrics)
	}
	// The merged scrape must carry both replicas' serve series under their
	// replica labels, the cluster's own gauges and routing counters, and the
	// process-wide build metadata — one page, every layer.
	for _, want := range []string{
		"advhunter_build_info",
		"advhunter_cluster_replicas 2",
		`advhunter_cluster_routed_total{policy="affinity",replica="0"}`,
		`advhunter_cluster_routed_total{policy="affinity",replica="1"}`,
		`advhunter_queue_capacity{replica="0"}`,
		`advhunter_queue_capacity{replica="1"}`,
		`advhunter_pool_workers{replica="0"} 1`,
		`advhunter_pool_workers{replica="1"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("cluster /metrics missing %q:\n%s", want, metrics)
		}
	}
	// The burst must have reached at least one replica-labelled serve
	// counter: requests_total appears only once a replica has answered.
	if !strings.Contains(string(metrics), `advhunter_requests_total{code="200",replica=`) {
		return fmt.Errorf("cluster /metrics shows no replica-labelled 200s after the burst:\n%s", metrics)
	}

	// The fleet observability surfaces: flight history carrying the burst
	// and replica-labelled series, the merged trace page, and fleet alerts.
	flight, err := awaitFlightRate(base)
	if err != nil {
		return fmt.Errorf("cluster %w", err)
	}
	for _, want := range []string{`"series_count"`, `replica=\"0\"`, `replica=\"1\"`} {
		if !strings.Contains(string(flight), want) {
			return fmt.Errorf("cluster /debug/flight missing %q:\n%s", want, flight)
		}
	}
	traces, err := get(base + "/debug/trace?last=5")
	if err != nil {
		return err
	}
	if !strings.Contains(string(traces), `"traces"`) {
		return fmt.Errorf("cluster /debug/trace missing traces:\n%s", traces)
	}
	if err := checkAlerts(base); err != nil {
		return fmt.Errorf("cluster %w", err)
	}
	return drain(cmd)
}

// stockAlerts is each stock rule with its exact /alerts describe text. The
// rules' thresholds, windows and multipliers are constants, so one that
// drifts changes this text and fails the smoke.
var stockAlerts = []struct{ rule, describe string }{
	{"latency-p99", "p99(advhunter_request_duration_seconds) > 0.25s over 1m0s"},
	{"error-rate", "429/5xx fraction of advhunter_requests_total > 0.05 over 1m0s"},
	{"detect-drift", "flag rate (advhunter_flagged_total/advhunter_scans_total) above clean baseline + 3σ"},
}

// checkAlerts requires base's /alerts page to list every stock rule with
// exactly its recorded describe text.
func checkAlerts(base string) error {
	page, err := get(base + "/alerts")
	if err != nil {
		return err
	}
	var doc struct {
		Alerts []obs.AlertView `json:"alerts"`
	}
	if err := json.Unmarshal(page, &doc); err != nil {
		return fmt.Errorf("/alerts is not JSON: %w\n%s", err, page)
	}
	got := make(map[string]string, len(doc.Alerts))
	for _, a := range doc.Alerts {
		got[a.Rule] = a.Describe
	}
	for _, want := range stockAlerts {
		d, ok := got[want.rule]
		if !ok {
			return fmt.Errorf("/alerts missing rule %q:\n%s", want.rule, page)
		}
		if d != want.describe {
			return fmt.Errorf("/alerts rule %q describes %q, want %q", want.rule, d, want.describe)
		}
	}
	return nil
}

// burstBodies encodes the /detect bodies of the scenario's first 40 test
// images, each under its own noise index. The scenario loads from the
// committed cache, like the server's.
func burstBodies(scenario string) ([][]byte, error) {
	env, err := experiments.LoadEnv(scenario, experiments.Options{CacheDir: "artifacts/cache"})
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	test := env.Data().Test
	for i, s := range test[:min(40, len(test))] {
		body, err := json.Marshal(serve.NewRequest(s.X, uint64(i)))
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// burst POSTs every body to the live listener and requires a 200 for each.
func burst(base string, bodies [][]byte) error {
	for i, body := range bodies {
		resp, err := http.Post(base+"/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("burst request %d: status %d: %s", i, resp.StatusCode, msg)
		}
	}
	fmt.Printf("servesmoke: burst answered %d/%d requests\n", len(bodies), len(bodies))
	return nil
}

// awaitFlightRate polls /debug/flight for up to 5 s until the flight
// recorder's sampling loop shows a positive request rate — the proof that
// the recorder samples on its own, with no other endpoint queried — and
// returns that page.
func awaitFlightRate(base string) ([]byte, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := get(base + "/debug/flight?window=30s")
		if err != nil {
			return nil, err
		}
		var page struct {
			Rates map[string]float64 `json:"rates"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, fmt.Errorf("/debug/flight is not JSON: %w", err)
		}
		if page.Rates["advhunter_requests_total"] > 0 {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("/debug/flight shows no request rate 5s after the burst: rates %v", page.Rates)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// parseAddr extracts the listen address from the serve announcement line,
// e.g. "serving S1 (…) on 127.0.0.1:43215 — POST /detect, …".
func parseAddr(line string) (string, bool) {
	if !strings.HasPrefix(line, "serving ") {
		return "", false
	}
	_, rest, ok := strings.Cut(line, " on ")
	if !ok {
		return "", false
	}
	addr, _, ok := strings.Cut(rest, " — ")
	return addr, ok
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
