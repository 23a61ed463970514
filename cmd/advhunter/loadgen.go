package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/serve"
	"advhunter/internal/workload"
)

// parseCohorts turns a "clean=6,fgsm=2,repeat=2" spec into a workload mix,
// crafting the adversarial pools through the scenario's attack cache. hot is
// the repeat cohort's hot-set size, eps the adversarial strength.
func parseCohorts(env *experiments.Env, spec string, hot int, eps float64) (workload.Mix, error) {
	var mix workload.Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cohort %q is not name=weight", part)
		}
		weight, err := strconv.ParseFloat(weightStr, 64)
		if err != nil {
			return nil, fmt.Errorf("cohort %q: %w", part, err)
		}
		c := workload.Cohort{Name: name, Weight: weight}
		switch name {
		case "clean":
			c.Pool = env.DS.Test
		case "repeat":
			c.Pool = env.DS.Test
			c.Hot = hot
		case "fgsm", "mim", "pgd":
			pool, err := env.CraftSamples(experiments.AttackSpec{Kind: name, Eps: eps, Targeted: true}, 60)
			if err != nil {
				return nil, fmt.Errorf("crafting %s cohort: %w", name, err)
			}
			if len(pool) == 0 {
				return nil, fmt.Errorf("%s cohort: attack produced no successful examples", name)
			}
			c.Pool = pool
		default:
			return nil, fmt.Errorf("unknown cohort %q (have clean, repeat, fgsm, mim, pgd)", name)
		}
		mix = append(mix, c)
	}
	return mix, nil
}

// sweepResult is the JSON envelope scripts/bench.sh appends to BENCH_8.json.
type sweepResult struct {
	Scenario string             `json:"scenario"`
	Runs     []*workload.Report `json:"runs"`
	Cluster  *clusterSection    `json:"cluster,omitempty"`
}

// clusterSection is the sweep document's cluster block: the saturation
// sweeps (knee per policy × replica count) and the truth-cache locality
// comparison between routing policies.
type clusterSection struct {
	SaturationTier string                      `json:"saturation_tier"`
	Rates          []float64                   `json:"rates"`
	Saturation     []*cluster.SaturationResult `json:"saturation"`
	LocalityTier   string                      `json:"locality_tier"`
	Locality       []localityPoint             `json:"locality"`
}

// localityPoint is one policy's fleet-wide truth-cache outcome under the
// repeat-heavy locality workload (identical request stream per policy).
type localityPoint struct {
	Policy       string  `json:"policy"`
	Replicas     int     `json:"replicas"`
	TruthHits    float64 `json:"truth_hits"`
	TruthMisses  float64 `json:"truth_misses"`
	TruthHitRate float64 `json:"truth_hit_rate"`
}

func cmdLoadgen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S1", "scenario id: the cohorts' sample source and the self-booted server's model (must match -target's model when targeting)")
	target := fs.String("target", "", "base URL of a running advhunter serve (empty boots one in-process on 127.0.0.1:0)")
	shape := fs.String("shape", workload.Poisson, fmt.Sprintf("arrival process: %v", workload.Kinds()))
	rate := fs.Float64("rate", 50, "open-loop mean offered load, requests/second")
	duration := fs.Duration("duration", 2*time.Second, "open-loop run horizon")
	requests := fs.Int("requests", 128, "closed-loop request count")
	clients := fs.Int("clients", 4, "closed-loop client count (also the open-loop in-flight socket cap)")
	think := fs.Duration("think", 0, "closed-loop think time between a response and the next request")
	burst := fs.Float64("burst", 8, "bursty on-phase rate multiplier")
	onFraction := fs.Float64("on", 0.25, "bursty on-phase fraction of each period")
	period := fs.Duration("period", time.Second, "bursty on/off cycle length")
	cycles := fs.Int("cycles", 2, "diurnal sinusoid cycles across the horizon")
	cohorts := fs.String("cohorts", "clean=6,fgsm=2,repeat=2", "cohort=weight list (cohorts: clean, fgsm, mim, pgd, repeat)")
	hot := fs.Int("hot", 2, "repeat cohort hot-set size (distinct inputs it cycles through)")
	eps := fs.Float64("eps", 0.5, "attack strength for the adversarial cohorts")
	loadSeed := fs.Uint64("load-seed", 1, "workload generation seed (equal seeds generate byte-identical traces)")
	record := fs.String("record", "", "write the generated trace to this file for later -replay")
	replay := fs.String("replay", "", "replay a recorded trace instead of generating one")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request client budget")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	expo := fs.String("expo", "", "write the client-side metrics exposition to this file")
	sweep := fs.Bool("sweep", false, "run the bench sweep — shapes {poisson,bursty,closed} × tiers {exact,twin,auto}, then the cluster saturation/locality sweeps — self-booting each server; ignores -target/-shape/-tier")
	out := fs.String("out", "", "with -sweep: write the sweep JSON to this file (default stdout)")
	clusterOut := fs.String("cluster-out", "", "with -sweep: also write just the cluster section to this file (for bench-script inlining)")
	sopts := serveFlags(fs)
	dopts := detectorFlags(fs)
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := copts.logger(stderr)
	if err != nil {
		return err
	}
	if err := sopts.validate(); err != nil {
		return err
	}
	// Cheap structural checks before any model loads.
	if err := (workload.ArrivalSpec{Kind: *shape, Rate: *rate}).Validate(); err != nil && *replay == "" && !*sweep {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	mix, err := parseCohorts(env, *cohorts, *hot, *eps)
	if err != nil {
		return err
	}

	if *sweep {
		p := sweepParams{
			rate: *rate, duration: *duration, requests: *requests, clients: *clients,
			seed: *loadSeed, timeout: *reqTimeout, out: *out, clusterOut: *clusterOut,
		}
		return runSweep(env, dopts, sopts, copts, mix, logger, p, stdout, stderr)
	}

	// One trace: replayed from disk or generated from the flags.
	var tr *workload.Trace
	if *replay != "" {
		loaded, ok := workload.TryLoadTrace(*replay)
		if !ok {
			return fmt.Errorf("trace %s is missing, corrupt, or stale-schema", *replay)
		}
		tr = loaded
	} else {
		tr, err = workload.Generate(workload.Config{
			Name: *scenario + "-" + *shape,
			Seed: *loadSeed,
			Arrival: workload.ArrivalSpec{
				Kind: *shape, Rate: *rate,
				Burst: *burst, OnFraction: *onFraction, Period: *period,
				Cycles:  *cycles,
				Clients: *clients, Think: *think,
			},
			Mix:      mix,
			Horizon:  *duration,
			Requests: *requests,
		})
		if err != nil {
			return err
		}
	}
	if *record != "" {
		if err := workload.SaveTrace(*record, tr); err != nil {
			return fmt.Errorf("recording trace to %s: %w", *record, err)
		}
		fmt.Fprintf(stderr, "recorded %d events to %s\n", len(tr.Events), *record)
	}

	base := *target
	if base == "" {
		det, cfg, err := buildServeStack(env, dopts, sopts, copts, logger, "")
		if err != nil {
			return err
		}
		booted, err := bootServer(env, det, cfg)
		if err != nil {
			return err
		}
		defer booted.shutdown()
		base = booted.base
		fmt.Fprintf(stderr, "booted %s (tier %s) on %s\n", env.Scn.ID, *sopts.tier, base)
	}

	res, err := workload.Run(context.Background(), base, tr, workload.RunOptions{
		Clients: *clients, Timeout: *reqTimeout,
	})
	if err != nil {
		return err
	}
	if *expo != "" {
		f, err := os.Create(*expo)
		if err != nil {
			return err
		}
		if err := res.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Report)
	}
	res.Report.Render(stdout)
	return nil
}

// sweepParams carries the sweep's sizing knobs.
type sweepParams struct {
	rate       float64
	duration   time.Duration
	requests   int
	clients    int
	seed       uint64
	timeout    time.Duration
	out        string
	clusterOut string
}

// writeJSON writes v indented to path, or to fallback when path is empty.
func writeJSON(path string, fallback io.Writer, v any) error {
	w := fallback
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSweep is the serve-level bench harness: for each tier it boots a fresh
// server and drives it with each traffic shape, then runs the cluster
// saturation and locality sweeps — one JSON document with every report, the
// "serve" section of BENCH_8.json.
func runSweep(env *experiments.Env, dopts detectorOpts, sopts serveOpts, copts commonOpts,
	mix workload.Mix, logger *slog.Logger, p sweepParams, stdout, stderr io.Writer) error {
	det, err := loadOrFitDetector(env, dopts)
	if err != nil {
		return err
	}
	shapes := []workload.ArrivalSpec{
		{Kind: workload.Poisson, Rate: p.rate},
		{Kind: workload.Bursty, Rate: p.rate / 2, Period: p.duration / 4},
		{Kind: workload.Closed, Clients: p.clients},
	}
	result := sweepResult{Scenario: env.Scn.ID}
	for ti, tier := range []string{serve.TierExact, serve.TierTwin, serve.TierAuto} {
		cfg, err := sopts.config(env, dopts, det, *copts.workers, logger, tier)
		if err != nil {
			return err
		}
		booted, err := bootServer(env, det, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sweep: tier %s on %s\n", tier, booted.base)
		for si, spec := range shapes {
			tr, err := workload.Generate(workload.Config{
				Name:     fmt.Sprintf("%s-%s-%s", env.Scn.ID, tier, spec.Kind),
				Seed:     p.seed + uint64(ti*len(shapes)+si),
				Arrival:  spec,
				Mix:      mix,
				Horizon:  p.duration,
				Requests: p.requests,
			})
			if err != nil {
				booted.shutdown()
				return err
			}
			res, err := workload.Run(context.Background(), booted.base, tr,
				workload.RunOptions{Clients: p.clients, Timeout: p.timeout})
			if err != nil {
				booted.shutdown()
				return fmt.Errorf("sweep %s/%s: %w", tier, spec.Kind, err)
			}
			rep := res.Report
			rep.Tier = tier // label even if a shape completed nothing
			result.Runs = append(result.Runs, rep)
			fmt.Fprintf(stderr, "sweep: %s/%s — %d req, p50 %.2fms p99 %.2fms, %.1f req/s, 429 %.3f, truth-hit %.3f\n",
				tier, spec.Kind, rep.Requests, rep.Latency.P50Ms, rep.Latency.P99Ms,
				rep.ThroughputRPS, rep.Rate429, rep.Server.TruthHitRate)
		}
		booted.shutdown()
	}

	result.Cluster, err = runClusterSweep(env, dopts, sopts, det, logger, p, stderr)
	if err != nil {
		return err
	}
	if p.clusterOut != "" {
		if err := writeJSON(p.clusterOut, nil, result.Cluster); err != nil {
			return err
		}
	}

	return writeJSON(p.out, stdout, result)
}

// runClusterSweep measures the cluster tier two ways.
//
// Saturation runs on the twin tier with a deliberately small per-replica
// in-flight cap and a long batch linger: the twin's µs-scale scoring
// keeps the shared CPU idle, so the knee measures provisioned concurrency —
// the thing a fleet planner scales by adding replicas — rather than a CPU
// ceiling that in-process replicas on one host could never move. Each
// replica's ceiling is MaxInflight requests per linger window, so doubling
// the replica count should roughly double the knee rate.
//
// Locality runs on the exact tier, where the truth cache is the asset: a
// repeat-heavy stream is replayed byte-identically against round-robin and
// fingerprint-affinity routing, and the fleet-wide truth-cache hit rate is
// read off the merged /metrics page.
func runClusterSweep(env *experiments.Env, dopts detectorOpts, sopts serveOpts,
	det *detect.Fitted, logger *slog.Logger, p sweepParams, stderr io.Writer) (*clusterSection, error) {
	sec := &clusterSection{
		SaturationTier: serve.TierTwin,
		Rates:          []float64{60, 120, 240, 480, 960},
		LocalityTier:   serve.TierExact,
	}

	scfg, err := sopts.config(env, dopts, det, 1, logger, serve.TierTwin)
	if err != nil {
		return nil, err
	}
	scfg.Workers = 1
	scfg.MaxInflight = 4
	scfg.BatchWait = 10 * time.Millisecond

	// Clean-only traffic: saturation measures capacity, so the mix must not
	// skew the affinity policy's load balance with a tiny hot set (locality
	// has its own run below).
	cleanMix := workload.Mix{{Name: "clean", Weight: 1, Pool: env.DS.Test}}

	sweeps := []struct {
		policy   string
		replicas int
	}{
		{cluster.PolicyRoundRobin, 1},
		{cluster.PolicyRoundRobin, 2},
		{cluster.PolicyLeastLoaded, 2},
		{cluster.PolicyAffinity, 2},
	}
	for ci, cc := range sweeps {
		booted, err := bootCluster(env, det, scfg, cluster.Config{
			Replicas: cc.replicas, Policy: cc.policy, Logger: logger,
		})
		if err != nil {
			return nil, err
		}
		an := &cluster.SaturationAnalyzer{
			Base: booted.base,
			MakeTrace: func(rate float64) (*workload.Trace, error) {
				return workload.Generate(workload.Config{
					Name:    fmt.Sprintf("%s-cluster-%s-x%d-r%g", env.Scn.ID, cc.policy, cc.replicas, rate),
					Seed:    p.seed + 1000 + uint64(ci),
					Arrival: workload.ArrivalSpec{Kind: workload.Poisson, Rate: rate},
					Mix:     cleanMix,
					Horizon: p.duration,
				})
			},
			Run: workload.RunOptions{Clients: 64, Timeout: p.timeout},
		}
		res, err := an.Sweep(context.Background(), sec.Rates)
		booted.shutdown()
		if err != nil {
			return nil, fmt.Errorf("cluster sweep %s ×%d: %w", cc.policy, cc.replicas, err)
		}
		res.Policy, res.Replicas, res.Tier = cc.policy, cc.replicas, serve.TierTwin
		sec.Saturation = append(sec.Saturation, res)
		fmt.Fprintf(stderr, "cluster sweep: %s ×%d — knee %.0f req/s (goodput %.1f qps, p99 %.2fms)\n",
			cc.policy, cc.replicas, res.KneeRate, res.KneeQPS, res.P99AtKneeMs)
	}

	lcfg, err := sopts.config(env, dopts, det, 1, logger, serve.TierExact)
	if err != nil {
		return nil, err
	}
	lcfg.Workers = 1
	// Repeat-only, hot set of 8: every query recurs ~8 times, so first-visit
	// misses are the only misses affinity pays, while round-robin pays one
	// miss per replica a query happens to land on.
	locMix := workload.Mix{{Name: "repeat", Weight: 1, Pool: env.DS.Test, Hot: 8}}
	for _, policy := range []string{cluster.PolicyRoundRobin, cluster.PolicyAffinity} {
		booted, err := bootCluster(env, det, lcfg, cluster.Config{
			Replicas: 2, Policy: policy, Logger: logger,
		})
		if err != nil {
			return nil, err
		}
		// One seed for every policy: the comparison replays the identical
		// request stream, so the hit-rate delta is pure routing.
		tr, err := workload.Generate(workload.Config{
			Name:     env.Scn.ID + "-cluster-locality-" + policy,
			Seed:     p.seed + 2000,
			Arrival:  workload.ArrivalSpec{Kind: workload.Closed, Clients: 2},
			Mix:      locMix,
			Horizon:  p.duration,
			Requests: 64,
		})
		if err != nil {
			booted.shutdown()
			return nil, err
		}
		if _, err := workload.Run(context.Background(), booted.base, tr,
			workload.RunOptions{Clients: 2, Timeout: p.timeout}); err != nil {
			booted.shutdown()
			return nil, fmt.Errorf("cluster locality %s: %w", policy, err)
		}
		snap, err := workload.Scrape(nil, booted.base)
		booted.shutdown()
		if err != nil {
			return nil, fmt.Errorf("cluster locality %s: scraping: %w", policy, err)
		}
		hits := snap.Sum("advhunter_truth_cache_hits_total")
		misses := snap.Sum("advhunter_truth_cache_misses_total")
		pt := localityPoint{Policy: policy, Replicas: 2, TruthHits: hits, TruthMisses: misses}
		if hits+misses > 0 {
			pt.TruthHitRate = hits / (hits + misses)
		}
		sec.Locality = append(sec.Locality, pt)
		fmt.Fprintf(stderr, "cluster locality: %s ×2 — truth-cache hit rate %.3f (%g hits, %g misses)\n",
			policy, pt.TruthHitRate, hits, misses)
	}
	return sec, nil
}
