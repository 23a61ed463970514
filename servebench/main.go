// Command servebench is the repository's serving benchmark. It builds inputs
// for one workload from a seed, runs the real `advhunter serve` or
// `advhunter cluster` binary as a child process on scenario S2 (ResNet18,
// 3×32×32 inputs), drives it over loopback HTTP with at most two
// connections, checks every answer, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate run times each module's public calls in-process and reads the
// server's stage histograms and /debug/trace records, and the metrics are
// the per-layer ones. README.md explains the workloads and metrics. Run it
// through run.sh from the repository root, which builds both binaries:
//
//	bash servebench/run.sh --workload hit-wire --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"advhunter/internal/obs"
	"advhunter/internal/workload"
)

// workloads maps each workload to the server command line it runs.
var workloads = map[string][]string{
	"hit-wire":    {"serve", "-tier", "exact"},
	"miss-exact":  {"serve", "-tier", "exact"},
	"auto-open":   {"serve", "-tier", "auto"}, // plus -twin-dir, see twinDir
	"hit-cluster": {"cluster", "-replicas", "2", "-policy", "affinity"},
}

const (
	// setupBoots is how many times an end-to-end run boots the server; setup_s
	// is the median. Every boot answers the probe, so the digest check also
	// compares that many processes.
	setupBoots = 5
	// traceRing is the traced server's -trace-ring capacity, above the
	// request count of any traced window.
	traceRing = 16384
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	bin      string
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "hit-wire, miss-exact, auto-open or hit-cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed window length")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "advhunter binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for logs and the twin table copy")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	code := run(o)
	stopAll()
	os.Exit(code)
}

func run(o options) int {
	if _, ok := workloads[o.workload]; !ok || o.bin == "" || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench -bin ADVHUNTER --workload hit-wire|miss-exact|auto-open|hit-cluster --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{o: o, client: newClient()}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "servebench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark invocation.
type bench struct {
	o         options
	client    *http.Client
	st        *stream
	window    float64 // timed window length, seconds
	twinPath  string
	attempted int
	failed    int
	problems  []string // failed correctness checks
	digests   []string // probe digest per boot, in boot order
	boots     int
}

// check records a failed correctness check unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// tally counts answers and records the first few failures.
func (b *bench) tally(outs []outcome) {
	for _, o := range outs {
		b.attempted++
		if !o.ok() {
			b.failed++
			if b.failed <= 3 {
				b.problems = append(b.problems, fmt.Sprintf("request %d: status %d %s", o.k, o.status, o.bad))
			}
		}
	}
}

func (b *bench) run() (result, error) {
	o := b.o
	before, err := snapshotTree(".", o.work)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(filepath.Join(o.work, "logs"), 0o755); err != nil {
		return result{}, err
	}
	if b.twinPath, err = copyTwinTable(o.work); err != nil {
		return result{}, err
	}
	// A traced run measures two windows, an untraced and a traced one, in
	// the time an end-to-end run spends on one.
	b.window = o.seconds
	if o.trace == 1 {
		b.window /= 2
	}
	t0 := time.Now()
	if b.st, err = buildStream(o.workload, o.seed, b.window); err != nil {
		return result{}, err
	}
	fmt.Printf("servebench %s seed=%d trace=%d: %s, %d clients, inputs ready in %.1fs\n",
		o.workload, o.seed, o.trace, strings.Join(b.args(), " "), clients, time.Since(t0).Seconds())

	var ref string
	if o.workload == "hit-cluster" {
		// Responses must not depend on the replica: the cluster's probe
		// digest must equal a single server's on the same stream, which is
		// hit-wire's.
		s, err := b.bootProbe(workloads["hit-wire"], "reference")
		if err != nil {
			return result{}, err
		}
		s.stop()
		ref, b.digests = b.digests[0], nil
	}
	var metrics map[string]metric
	if o.trace == 0 {
		metrics, err = b.endToEnd()
	} else {
		metrics, err = b.perLayer()
	}
	if err != nil {
		return result{}, err
	}
	if ref != "" {
		b.check(b.digests[0] == ref, "hit-cluster digest %s differs from single-server digest %s", b.digests[0], ref)
	}
	for i, d := range b.digests {
		b.check(d == b.digests[0], "boot %d probe digest %s differs from boot 0's %s", i, d, b.digests[0])
	}
	fmt.Printf("  probe digest %s over %d verdicts, %d boots\n", b.digests[0], probeEvents, len(b.digests))

	after, err := snapshotTree(".", o.work)
	if err != nil {
		return result{}, err
	}
	changed := after.changesSince(before)
	b.check(len(changed) == 0, "the run changed the tree: %s", strings.Join(changed, "; "))
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	if !res.Correct {
		res.Metrics = map[string]metric{} // a failed check reports no numbers
	}
	return res, nil
}

// args is the workload's server command line.
func (b *bench) args() []string {
	args := append([]string(nil), workloads[b.o.workload]...)
	if b.o.workload == "auto-open" {
		args = append(args, "-twin-dir", filepath.Dir(b.twinPath))
	}
	return args
}

// copyTwinTable copies the committed S2 twin table to work/twin/S2.gob, where
// the auto tier's -twin-dir and the in-process twin set-up read it. Serving
// from a copy keeps a stale table's re-profiling out of the tracked tree.
func copyTwinTable(work string) (string, error) {
	raw, err := os.ReadFile(filepath.Join("artifacts", "cache", fmt.Sprintf("v%d", cacheSchema), scn.ID, "twin-k16.gob"))
	if err != nil {
		return "", err
	}
	dst := filepath.Join(work, "twin", scn.ID+".gob")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", err
	}
	return dst, os.WriteFile(dst, raw, 0o644)
}

// bootProbe boots the server and sends it the probe, recording the digest.
func (b *bench) bootProbe(args []string, label string) (*server, error) {
	log := filepath.Join(b.o.work, "logs", fmt.Sprintf("%s-%d-%s-%d.log", b.o.workload, b.o.seed, label, b.boots))
	b.boots++
	s, err := boot(b.o.bin, args, log)
	if err != nil {
		return nil, err
	}
	p := probe(b.client, s.base, b.st)
	b.tally(p)
	b.digests = append(b.digests, digest(p))
	return s, nil
}

// slices is how many equal parts a timed window is cut into. Throughput,
// p50, p95 and CPU per request are the medians of their per-slice values, so
// a burst of host noise in a few slices does not move them.
//
// No latency tail is a bounded metric; the report prints p90, p95 and p99.
// On hit-wire about 1-5 % of requests miss their micro-batch and wait out a
// second linger, so p99 flips between the two modes from run to run (a
// quartile spread of 0.31 of the median over ten seeds on a 2-vCPU host). On
// auto-open about a tenth of the requests escalate to the exact tier, so p90
// falls on the edge between the screened and the escalated mode (0.31), and
// p95, inside the escalated mode, doubled while the host's CPU was slow for a
// few minutes, where p50 rose by a third (spreads 0.70 and 0.25).
const slices = 10

// stats is what one timed window measured.
type stats struct {
	w        window
	ok       int
	lat      []float64 // ms, sorted
	p50, p95 float64
	p90, p99 float64 // over the whole window
	beyond   int     // answers slower than p99
	rps      float64
	cpuMs    float64 // per answered request
	rssMB    float64
	counters map[string]float64 // per-layer metrics read from /metrics deltas
	tpr, fpr float64
	pos, neg int
}

// measure runs one timed window against s. It reads the server's counters
// only before and after the window, and its CPU time (from /proc, not from
// the server) at the slice boundaries.
func (b *bench) measure(s *server) (stats, error) {
	var st stats
	m0, err := workload.Scrape(b.client, s.base)
	if err != nil {
		return st, err
	}
	span := time.Duration(b.window * float64(time.Second))
	if b.st.due != nil {
		span = b.st.due[b.st.n-1] - b.st.due[probeEvents]
	}
	// The generator needs little CPU; one thread leaves the server the rest.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	cpu := make(chan []time.Duration, 1)
	go func() {
		var marks []time.Duration
		for i := 0; i <= slices; i++ {
			time.Sleep(time.Until(start.Add(span * time.Duration(i) / slices)))
			c, err := s.cpuTime()
			if err != nil {
				break
			}
			marks = append(marks, c)
		}
		cpu <- marks
	}()
	if b.st.due != nil {
		st.w = openLoop(b.client, s.base, b.st, probeEvents, start)
	} else {
		st.w = closedLoop(b.client, s.base, b.st, probeEvents, start, span)
	}
	marks := <-cpu
	if len(marks) != slices+1 {
		return st, fmt.Errorf("reading the server's CPU time failed")
	}
	m1, err := workload.Scrape(b.client, s.base)
	if err != nil {
		return st, err
	}
	if st.rssMB, err = s.peakRSS(); err != nil {
		return st, err
	}
	b.tally(st.w.outcomes)

	var adv, flaggedClean int
	part := make([][]float64, slices) // latencies by the slice they completed in
	for _, o := range st.w.outcomes {
		if !o.ok() {
			continue
		}
		ms := float64(o.latency) / float64(time.Millisecond)
		st.ok++
		st.lat = append(st.lat, ms)
		i := min(int(o.done*slices/span), slices-1)
		part[i] = append(part[i], ms)
		if b.st.cohort(o.k) == "clean" {
			st.neg++
			if o.adv {
				flaggedClean++
			}
		} else {
			st.pos++
			if o.adv {
				adv++
			}
		}
	}
	if st.ok == 0 {
		return st, fmt.Errorf("no request of the timed window succeeded")
	}
	sort.Float64s(st.lat)
	st.p90, st.p99 = quantile(st.lat, 0.9), quantile(st.lat, 0.99)
	for _, l := range st.lat {
		if l > st.p99 {
			st.beyond++
		}
	}
	var rps, p50, p95, cpuMs []float64
	for i, p := range part {
		if len(p) == 0 {
			return st, fmt.Errorf("slice %d of the timed window has no answers", i)
		}
		sort.Float64s(p)
		rps = append(rps, float64(len(p))/(span.Seconds()/slices))
		p50 = append(p50, quantile(p, 0.5))
		p95 = append(p95, quantile(p, 0.95))
		cpuMs = append(cpuMs, float64(marks[i+1]-marks[i])/float64(time.Millisecond)/float64(len(p)))
	}
	st.rps, st.p50, st.p95, st.cpuMs = median(rps), median(p50), median(p95), median(cpuMs)
	st.tpr = ratio(float64(adv), float64(st.pos))
	st.fpr = ratio(float64(flaggedClean), float64(st.neg))

	d := m1.DeltaFrom(m0)
	hits, misses := d.Sum("advhunter_truth_cache_hits_total"), d.Sum("advhunter_truth_cache_misses_total")
	st.counters = map[string]float64{
		"serve.queue_ms": 1000 * ratio(d.SumMatch("advhunter_stage_duration_seconds_sum", "stage", "queue"),
			d.SumMatch("advhunter_stage_duration_seconds_count", "stage", "queue")),
		"serve.batch_width":    ratio(d.Sum("advhunter_batch_size_sum"), d.Sum("advhunter_batch_size_count")),
		"serve.handler_ms":     1000 * ratio(d.Sum("advhunter_request_duration_seconds_sum"), d.Sum("advhunter_request_duration_seconds_count")),
		"core.truth_hit_rate":  ratio(hits, hits+misses),
		"twin.escalation_rate": ratio(d.Sum("advhunter_tier_escalations_total"), d.Sum("advhunter_tier_screened_total")),
	}
	if b.o.workload == "hit-cluster" {
		var routed []float64
		for r := 0; ; r++ {
			key := fmt.Sprintf(`advhunter_cluster_routed_total{policy="affinity",replica="%d"}`, r)
			if _, ok := m1[key]; !ok {
				break
			}
			routed = append(routed, d[key])
		}
		st.counters["cluster.replica_skew"] = skew(routed)
		st.counters["cluster.truth_hit_rate"] = st.counters["core.truth_hit_rate"]
	}
	if st.w.late != nil {
		late := make([]float64, len(st.w.late))
		for i, l := range st.w.late {
			late[i] = float64(l) / float64(time.Millisecond)
		}
		sort.Float64s(late)
		st.counters["workload.late_ms"] = quantile(late, 0.99)
	}

	// The truth-cache hit rate is part of what each workload means: the hit
	// workloads must be served from the cache, miss-exact never.
	rate := st.counters["core.truth_hit_rate"]
	switch b.o.workload {
	case "hit-wire", "hit-cluster":
		b.check(rate >= 0.99, "truth-cache hit rate %.4f < 0.99 on %s", rate, b.o.workload)
	case "miss-exact":
		b.check(hits == 0 && misses > 0, "miss-exact saw %g truth-cache hits and %g misses", hits, misses)
	}
	return st, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// skew is max ÷ mean; 0 for an empty or all-zero sample.
func skew(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var max, sum float64
	for _, x := range xs {
		sum += x
		max = math.Max(max, x)
	}
	return ratio(max, sum/float64(len(xs)))
}

// endToEnd boots the server setupBoots times and measures one window on the
// last boot.
func (b *bench) endToEnd() (map[string]metric, error) {
	var setups []float64
	var s *server
	for i := 0; i < setupBoots; i++ {
		var err error
		if s, err = b.bootProbe(b.args(), "boot"); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < setupBoots-1 {
			s.stop()
		}
	}
	st, err := b.measure(s)
	s.stop()
	if err != nil {
		return nil, err
	}
	b.report(st)
	fmt.Printf("  %-16s %10.4f s       median of %d boots %s\n", "setup_s", median(setups), len(setups), fmtList(setups))
	return map[string]metric{
		"throughput_rps": {st.rps, "req/s"},
		"p50_ms":         {st.p50, "ms"},
		"cpu_ms_per_req": {st.cpuMs, "ms"},
		"setup_s":        {median(setups), "s"},
		"rss_mb":         {st.rssMB, "MB"},
	}, nil
}

// report prints a window's end-to-end metrics, including those that are not
// in the JSON line because they are zero on some workloads.
func (b *bench) report(st stats) {
	fmt.Printf("  %-16s %10.4f req/s   median of %d slices; %d answers in %.2fs\n", "throughput_rps", st.rps, slices, st.ok, st.w.wall.Seconds())
	fmt.Printf("  %-16s %10.4f ms      median of %d slices; n=%d\n", "p50_ms", st.p50, slices, st.ok)
	fmt.Printf("  %-16s %10.4f ms      median of %d slices (not bounded)\n", "p95_ms", st.p95, slices)
	fmt.Printf("  %-16s %10.4f ms      whole window (not bounded)\n", "p90_ms", st.p90)
	fmt.Printf("  %-16s %10.4f ms      whole window; %d of %d beyond (not bounded)\n", "p99_ms", st.p99, st.beyond, st.ok)
	fmt.Printf("  %-16s %10.4f ms      server CPU per answer, median of %d slices\n", "cpu_ms_per_req", st.cpuMs, slices)
	fmt.Printf("  %-16s %10.4f MB      server VmHWM\n", "rss_mb", st.rssMB)
	fmt.Printf("  %-16s %10.4f         %d of %d requests\n", "fail_rate", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	if st.pos > 0 {
		fmt.Printf("  %-16s %10.4f         n=%d adversarial\n", "tpr", st.tpr, st.pos)
	}
	fmt.Printf("  %-16s %10.4f         n=%d clean\n", "fpr", st.fpr, st.neg)
}

// perLayer measures an untraced window, then a traced one on a server booted
// with -trace-ring, then times the modules' public calls in-process.
func (b *bench) perLayer() (map[string]metric, error) {
	s, err := b.bootProbe(b.args(), "untraced")
	if err != nil {
		return nil, err
	}
	plain, err := b.measure(s)
	s.stop()
	if err != nil {
		return nil, err
	}
	b.report(plain)

	s, err = b.bootProbe(append(b.args(), "-trace-ring", strconv.Itoa(traceRing)), "traced")
	if err != nil {
		return nil, err
	}
	traced, err := b.measure(s)
	if err != nil {
		s.stop()
		return nil, err
	}
	traces, err := fetchTraces(b.client, s.base)
	s.stop()
	if err != nil {
		return nil, err
	}
	bud, err := stageBudget(traces, traced.w)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(b.o.work, "spans", fmt.Sprintf("%s-%d.jsonl", b.o.workload, b.o.seed))
	if err := writeSpans(spans, traces, traced.w); err != nil {
		return nil, err
	}
	fmt.Printf("  spans of %d traced requests written to %s\n", bud.matched, spans)
	b.printBudget(bud)
	b.check(math.Abs(bud.residual) <= budgetTolerance*bud.p50,
		"stage budget misses p50 %.3f ms by %.3f ms (tolerance %.0f%%)", bud.p50, bud.residual, 100*budgetTolerance)

	layers, err := layerTimes(b.st, b.twinPath)
	if err != nil {
		return nil, err
	}
	for k, v := range plain.counters {
		layers[k] = v
	}
	layers["serve.unattributed_ms"] = bud.other
	layers["detect.tpr"] = plain.tpr
	layers["detect.fpr"] = plain.fpr
	layers["obs.trace_overhead_pct"] = 100 * (traced.p50/plain.p50 - 1)
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{layers[name], unit} // absent: the layer is not on this workload's path
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %12.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	return out, nil
}

// perLayerUnits lists every per-layer metric with its unit. Metrics whose
// layer a workload does not run (the cluster's on a single server, the
// twin's escalations on the exact tier, generator lateness in a closed loop)
// read 0 there.
var perLayerUnits = map[string]string{
	"serve.decode_ms":        "ms",
	"serve.queue_ms":         "ms",
	"serve.batch_width":      "count",
	"serve.encode_us":        "us",
	"serve.handler_ms":       "ms",
	"serve.unattributed_ms":  "ms",
	"core.fingerprint_us":    "us",
	"core.truth_hit_rate":    "fraction",
	"core.measure_hit_us":    "us",
	"core.measure_miss_ms":   "ms",
	"engine.forward_ms":      "ms",
	"engine.replay_ms":       "ms",
	"twin.measure_ms":        "ms",
	"twin.escalation_rate":   "fraction",
	"detect.score_us":        "us",
	"detect.tpr":             "fraction",
	"detect.fpr":             "fraction",
	"cluster.route_ms":       "ms",
	"cluster.replica_skew":   "ratio",
	"cluster.truth_hit_rate": "fraction",
	"workload.late_ms":       "ms",
	"setup.env_s":            "s",
	"setup.detector_s":       "s",
	"setup.twin_s":           "s",
	"obs.trace_overhead_pct": "%",
}

// fetchTraces reads every trace record the server's ring holds.
func fetchTraces(c *http.Client, base string) ([]obs.TraceView, error) {
	resp, err := c.Get(base + "/debug/trace?last=" + strconv.Itoa(traceRing))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var page struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return nil, fmt.Errorf("decoding /debug/trace: %w", err)
	}
	return page.Traces, nil
}

func (b *bench) printBudget(bud budget) {
	fmt.Printf("  stage budget at the traced p50 (%.3f ms; %d of %d traced requests in the 45-55th percentile band):\n",
		bud.p50, bud.band, bud.matched)
	for _, r := range bud.rows {
		fmt.Printf("    %-18s %8.3f ms %6.1f%%\n", r.stage, r.ms, 100*r.ms/bud.p50)
	}
	fmt.Printf("    %-18s %8.3f ms %6.1f%%  (tolerance ±%.0f%%)\n", "unattributed", bud.residual, 100*bud.residual/bud.p50, 100*budgetTolerance)
	if len(bud.rows) > 0 {
		fmt.Printf("  largest stage: %s\n", bud.rows[0].stage)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
