package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"advhunter/internal/experiments"
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
	cohorts := fs.String("cohorts", "clean=6,fgsm=2,repeat=2", "cohort=weight list (cohorts: clean, fgsm, mim, pgd, repeat)")
	hot := fs.Int("hot", 2, "repeat cohort hot-set size (distinct inputs it cycles through)")
	eps := fs.Float64("eps", 0.5, "attack strength for the adversarial cohorts")
	loadSeed := fs.Uint64("load-seed", 1, "workload generation seed (equal seeds generate byte-identical traces)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request client budget")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	expo := fs.String("expo", "", "write the client-side metrics exposition to this file")
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
	if err := (workload.ArrivalSpec{Kind: *shape, Rate: *rate}).Validate(); err != nil {
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

	tr, err := workload.Generate(workload.Config{
		Name: *scenario + "-" + *shape,
		Seed: *loadSeed,
		Arrival: workload.ArrivalSpec{
			Kind: *shape, Rate: *rate,
			Clients: *clients, Think: *think,
		},
		Mix:      mix,
		Horizon:  *duration,
		Requests: *requests,
	})
	if err != nil {
		return err
	}

	base := *target
	if base == "" {
		det, cfg, err := buildServeStack(env, dopts, sopts, copts, logger)
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
