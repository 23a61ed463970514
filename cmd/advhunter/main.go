// Command advhunter drives the AdvHunter reproduction: train scenario
// models, craft adversarial examples, measure simulated HPC readings, run
// the detector, serve it as a long-lived detection service, and regenerate
// every table and figure of the paper.
//
// Usage:
//
//	advhunter list
//	advhunter experiment -id table2 [-cache DIR] [-quick] [-v]
//	advhunter train -scenario S2 [-cache DIR]
//	advhunter attack -scenario S2 -kind fgsm -eps 0.5 -targeted [-n 60]
//	advhunter fit -scenario S2 -detector FILE [-backend kde]
//	advhunter scan -scenario S2 [-n 20] [-detector FILE] [-backend gmm]
//	advhunter twin-profile -scenario S2 [-dir artifacts/twin] [-knots 16] [-force]
//	advhunter serve -scenario S2 -addr :8080 [-detector FILE] [-backend gmm] [-tier auto]
//	advhunter loadgen -scenario S1 [-target URL] [-shape poisson] [-rate 50]
//	advhunter watch -target http://host:8080 [-interval 2s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/obs"
	"advhunter/internal/parallel"
	"advhunter/internal/serve"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one invocation; it is main minus os.Exit so the dispatch
// table is testable. Exit codes: 0 ok, 1 command failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	obs.RegisterBuildInfo(obs.Default) // advhunter_build_info on every scrape
	var err error
	switch args[0] {
	case "list":
		err = cmdList(stdout)
	case "version":
		err = cmdVersion(stdout)
	case "experiment":
		err = cmdExperiment(args[1:], stdout, stderr)
	case "train":
		err = cmdTrain(args[1:], stdout, stderr)
	case "attack":
		err = cmdAttack(args[1:], stdout, stderr)
	case "fit":
		err = cmdFit(args[1:], stdout, stderr)
	case "scan":
		err = cmdScan(args[1:], stdout, stderr)
	case "twin-profile":
		err = cmdTwinProfile(args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "cluster":
		err = cmdCluster(args[1:], stdout, stderr)
	case "loadgen":
		err = cmdLoadgen(args[1:], stdout, stderr)
	case "watch":
		err = cmdWatch(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "advhunter: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "advhunter: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `advhunter — HPC side-channel adversarial-example detection (DAC'24 reproduction)

commands:
  list        list experiments and scenarios
  version     print build metadata (version, go version, vcs revision)
  experiment  run one experiment by id (-id table2)
  train       train or load one scenario model (-scenario S2)
  attack      craft adversarial examples and report attack statistics
  fit         fit a detector backend and save the artifact (-detector FILE)
  scan        run the deployed pipeline on test images and print decisions
  twin-profile  precompute the analytical-twin count tables for a scenario
  serve       run the online detection service (HTTP JSON, /detect)
  cluster     run the multi-replica serving tier (N replicas behind a routing policy, merged /metrics)
  loadgen     drive a serve instance with synthetic traffic and report latency, throughput, and backpressure
  watch       live terminal dashboard over a running serve or cluster (-target URL)

run 'advhunter <command> -h' for flags.`)
}

// commonOpts holds the flags every subcommand shares: cache location,
// workload sizing, worker-pool width, and the structured-logging knobs.
type commonOpts struct {
	cache     *string
	quick     *bool
	verbose   *bool
	workers   *int
	logLevel  *string
	logFormat *string
}

// commonFlags registers the flags every subcommand shares.
func commonFlags(fs *flag.FlagSet) commonOpts {
	return commonOpts{
		cache:     fs.String("cache", "artifacts/cache", "cache directory for models and measurements (empty disables)"),
		quick:     fs.Bool("quick", false, "reduced workload sizes (for smoke tests)"),
		verbose:   fs.Bool("v", false, "log progress to stderr"),
		workers:   fs.Int("workers", 0, "worker goroutines for measurement/attack fan-out (0 = GOMAXPROCS, 1 = serial; results are identical for any value)"),
		logLevel:  fs.String("log-level", "info", "structured-log level: debug, info, warn, error"),
		logFormat: fs.String("log-format", "json", "structured-log format: json or text"),
	}
}

func (c commonOpts) options() experiments.Options {
	var log io.Writer
	if *c.verbose {
		log = os.Stderr
	}
	return experiments.Options{CacheDir: *c.cache, Quick: *c.quick, Log: log, Workers: *c.workers}
}

// logger builds the process logger from the logging flags and installs it as
// slog's default, so library code logging through slog.Default() follows the
// same -log-level/-log-format settings.
func (c commonOpts) logger(stderr io.Writer) (*slog.Logger, error) {
	level, err := obs.ParseLevel(*c.logLevel)
	if err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(stderr, level, *c.logFormat)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	return logger, nil
}

// detectorOpts holds the detector-selection flags shared by fit, scan and
// serve — one registration point instead of three diverging copies.
type detectorOpts struct {
	path    *string
	backend *string
	seed    *uint64
}

func detectorFlags(fs *flag.FlagSet) detectorOpts {
	return detectorOpts{
		path:    fs.String("detector", "", "fitted-detector file: loaded if valid (any backend), refitted and saved on a miss"),
		backend: fs.String("backend", "gmm", fmt.Sprintf("detector backend to fit on a miss (%v)", detect.Kinds())),
		seed:    fs.Uint64("seed", 1, "mixture-fitting seed used when refitting"),
	}
}

// config validates the selected backend and builds the fit configuration.
func (o detectorOpts) config() (detect.Config, error) {
	if _, ok := detect.Lookup(*o.backend); !ok {
		return detect.Config{}, fmt.Errorf("unknown backend %q (have %v)", *o.backend, detect.Kinds())
	}
	cfg := detect.DefaultConfig()
	cfg.GMM.Seed = *o.seed
	return cfg, nil
}

// loadOrFitDetector implements the "fit once, serve many" workflow: a valid
// artifact at path is loaded (whatever backend wrote it); a missing, corrupt
// or stale-schema file is a miss — the selected backend is refitted from the
// scenario's validation template and the artifact is (re)written for the
// next process.
func loadOrFitDetector(env *experiments.Env, o detectorOpts) (*detect.Fitted, error) {
	logf := func(format string, args ...any) {
		if env.Opts.Log != nil {
			fmt.Fprintf(env.Opts.Log, format+"\n", args...)
		}
	}
	path := *o.path
	if path != "" {
		if det, ok := detect.TryLoad(path); ok {
			logf("[%s] loaded %s detector from %s", env.Scn.ID, det.Kind(), path)
			if det.Kind() != *o.backend {
				logf("[%s] note: artifact backend %q overrides -backend %q", env.Scn.ID, det.Kind(), *o.backend)
			}
			return det, nil
		}
	}
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	det, err := env.DetectorKind(*o.backend, cfg)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := detect.Save(path, det); err != nil {
			return nil, fmt.Errorf("saving detector to %s: %w", path, err)
		}
		logf("[%s] fitted %s detector and saved it to %s", env.Scn.ID, *o.backend, path)
	}
	return det, nil
}

func cmdVersion(stdout io.Writer) error {
	info := obs.Build()
	fmt.Fprintf(stdout, "advhunter %s (%s)\n", info.Version, info.GoVersion)
	if info.Revision != "" {
		dirty := ""
		if info.Modified {
			dirty = " (modified)"
		}
		fmt.Fprintf(stdout, "commit %s%s\n", info.Revision, dirty)
	}
	return nil
}

func cmdList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "experiments:")
	for _, id := range experiments.IDs() {
		fmt.Fprintf(stdout, "  %-22s %s\n", id, experiments.Registry[id].Description)
	}
	fmt.Fprintln(stdout, "\nscenarios:")
	for _, id := range []string{"S1", "S2", "S3", "CS"} {
		s := experiments.Scenarios[id]
		fmt.Fprintf(stdout, "  %-3s %s × %s (%d classes, target %q)\n",
			id, s.Dataset, s.Arch, classesOf(s.Dataset), data.ClassName(s.Dataset, s.TargetClass))
	}
	return nil
}

func classesOf(dataset string) int {
	if dataset == "gtsrb" {
		return 43
	}
	return 10
}

func cmdExperiment(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "", "experiment id (see 'advhunter list'), or 'all'")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of a table")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := copts.logger(stderr)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "advhunter: creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush garbage so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "advhunter: writing mem profile: %v\n", err)
			}
		}()
	}
	opts := copts.options()
	runFn := experiments.Run
	if *asJSON {
		runFn = experiments.RunJSON
	}
	// runOne wraps one experiment with a structured run summary: wall time,
	// worker-pool width, and the process-lifetime cache counters.
	runOne := func(eid string) error {
		start := time.Now()
		if err := runFn(eid, opts, stdout); err != nil {
			return err
		}
		hits, misses, writes := experiments.CacheStats()
		logger.Info("experiment complete",
			slog.String("id", eid),
			slog.Duration("wall_time", time.Since(start)),
			slog.Int("workers", parallel.Workers(*copts.workers, 0)),
			slog.Uint64("cache_hits", hits),
			slog.Uint64("cache_misses", misses),
			slog.Uint64("cache_writes", writes))
		return nil
	}
	if *id == "all" {
		for _, eid := range experiments.IDs() {
			if err := runOne(eid); err != nil {
				return fmt.Errorf("experiment %s: %w", eid, err)
			}
		}
		return nil
	}
	if *id == "" {
		return fmt.Errorf("missing -id (see 'advhunter list')")
	}
	return runOne(*id)
}

func cmdTrain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (S1, S2, S3, CS)")
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := copts.logger(stderr); err != nil {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario %s: %s × %s\n", env.Scn.ID, env.Scn.Dataset, env.Scn.Arch)
	fmt.Fprintf(stdout, "clean test accuracy: %.2f%%\n", 100*env.CleanAcc)
	fmt.Fprintf(stdout, "parameters: %d\n", env.Model.ParamCount())
	return nil
}

func cmdAttack(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id")
	kind := fs.String("kind", "fgsm", "attack kind: fgsm, pgd, deepfool")
	eps := fs.Float64("eps", 0.1, "attack strength (L∞); ignored by deepfool")
	targeted := fs.Bool("targeted", false, "targeted variant (toward the scenario target class)")
	n := fs.Int("n", 60, "number of source images")
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := copts.logger(stderr); err != nil {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	spec := experiments.AttackSpec{Kind: *kind, Eps: *eps, Targeted: *targeted}
	ar, err := env.Attack(spec, *n)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "attack: %s on %s\n", spec, *scenario)
	fmt.Fprintf(stdout, "success rate: %.2f%%   model accuracy under attack: %.2f%%\n",
		100*ar.SuccessRate, 100*ar.ModelAccuracy)
	fmt.Fprintf(stdout, "successful adversarial examples measured: %d\n", len(ar.Meas))
	return nil
}

func cmdFit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id")
	dopts := detectorFlags(fs)
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := copts.logger(stderr); err != nil {
		return err
	}
	if *dopts.path == "" {
		return fmt.Errorf("missing -detector (the artifact file to write)")
	}
	cfg, err := dopts.config()
	if err != nil {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	det, err := env.DetectorKind(*dopts.backend, cfg)
	if err != nil {
		return err
	}
	if err := detect.Save(*dopts.path, det); err != nil {
		return fmt.Errorf("saving detector to %s: %w", *dopts.path, err)
	}
	fmt.Fprintf(stdout, "fitted %s detector for %s: %d channels, %d/%d classes modelled\n",
		det.Kind(), env.Scn.ID, len(det.Channels()), det.ModelledClasses(), det.Classes())
	fmt.Fprintf(stdout, "saved to %s\n", *dopts.path)
	return nil
}

func cmdScan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id")
	n := fs.Int("n", 10, "number of test images to scan (clean + adversarial)")
	eps := fs.Float64("eps", 0.5, "strength of the demonstration attack")
	dopts := detectorFlags(fs)
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := copts.logger(stderr); err != nil {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	det, err := loadOrFitDetector(env, dopts)
	if err != nil {
		return err
	}
	pipe := &detect.Pipeline{M: env.Meas, D: det}

	fmt.Fprintf(stdout, "scanning %d clean test images (%s backend):\n", *n, det.Kind())
	for i := 0; i < *n && i < len(env.DS.Test); i++ {
		s := env.DS.Test[i]
		res := pipe.Scan(s.X)
		fmt.Fprintf(stdout, "  image %2d (true %q): predicted %q, adversarial=%v\n",
			i, data.ClassName(env.Scn.Dataset, s.Label),
			data.ClassName(env.Scn.Dataset, res.PredictedClass), res.Fused)
	}

	spec := experiments.AttackSpec{Kind: "fgsm", Eps: *eps, Targeted: true}
	ar, err := env.Attack(spec, *n)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scanning %d adversarial images (%s):\n", len(ar.Meas), spec)
	for i, m := range ar.Meas {
		res := det.Detect(m)
		fmt.Fprintf(stdout, "  AE %2d (from %q): predicted %q, adversarial=%v\n",
			i, data.ClassName(env.Scn.Dataset, m.TrueLabel),
			data.ClassName(env.Scn.Dataset, m.Pred), res.Fused)
	}
	return nil
}

// cmdTwinProfile precomputes the analytical-twin count tables for one
// scenario and writes them where tiered serving looks first, so a later
// `serve -tier twin|auto` boots without paying the profiling sweep. The
// probe workload is Env.TwinProbes — identical to what serve would profile
// on a miss — so the precomputed table and an on-demand one are the same
// table.
func cmdTwinProfile(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("twin-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (defines the profiled model)")
	dir := fs.String("dir", "artifacts/twin", "table directory (one <scenario>.gob per scenario)")
	knots := fs.Int("knots", twin.DefaultKnots, "sparsity buckets per layer curve")
	force := fs.Bool("force", false, "re-profile even when a fresh table exists")
	copts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := copts.logger(stderr); err != nil {
		return err
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	path := filepath.Join(*dir, env.Scn.ID+".gob")
	if *force {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	tab, loaded, err := twin.LoadOrProfile(path, env.Meas.Engine.Clone(), env.TwinProbes, *knots, env.Opts.Workers)
	if err != nil {
		return err
	}
	verb := "profiled"
	if loaded {
		verb = "already fresh"
	}
	fmt.Fprintf(stdout, "twin table for %s %s at %s\n", env.Scn.ID, verb, path)
	fmt.Fprintf(stdout, "%d layers × %d knots from %d probes (%d bytes)\n",
		len(tab.Layers), tab.Knots, tab.Probes, tab.Bytes())

	// Self-check: predict a few held-out validation inputs and compare
	// against the exact simulator, so a bad table is caught at build time
	// rather than at serve time.
	tm, err := twin.FromMeasurer(env.Meas, tab)
	if err != nil {
		return err
	}
	pool := env.ValidationPool()
	n := 16
	if n > len(pool) {
		n = len(pool)
	}
	var worst float64
	worstEv := hpc.Instructions
	for _, s := range pool[:n] {
		pred := tm.Truth(s.X)
		_, truth := env.Meas.Engine.Infer(s.X)
		for _, ev := range hpc.CoreEvents() {
			rel := math.Abs(pred.Counts.Get(ev)-truth.Get(ev)) / math.Max(truth.Get(ev), 1)
			if rel > worst {
				worst, worstEv = rel, ev
			}
		}
	}
	fmt.Fprintf(stdout, "self-check vs exact on %d validation inputs: worst relative error %.4f (%s)\n",
		n, worst, worstEv)
	return nil
}

func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (defines the served model)")
	addr := fs.String("addr", ":8080", "listen address")
	dopts := detectorFlags(fs)
	sopts := serveFlags(fs)
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof profiling endpoints")
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
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	det, cfg, err := buildServeStack(env, dopts, sopts, copts, logger)
	if err != nil {
		return err
	}
	srv := serve.New(env.Meas, det, cfg)
	handler := http.Handler(srv.Handler())
	if *pprofOn {
		// Profiling endpoints are opt-in: the detection service faces query
		// traffic, and pprof exposes process internals.
		outer := http.NewServeMux()
		outer.Handle("/", srv.Handler())
		outer.HandleFunc("/debug/pprof/", httppprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		handler = outer
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}

	// Graceful drain on SIGTERM/SIGINT: stop accepting, finish queued work,
	// then close the listener.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	// Print the listener's actual address: with ":0" the kernel picks the
	// port, and scripted callers (scripts/servesmoke) parse this line.
	fmt.Fprintf(stdout, "serving %s (%s × %s, tier %s) on %s — POST /detect, GET /healthz /readyz /metrics%s\n",
		env.Scn.ID, env.Scn.Dataset, env.Scn.Arch, *sopts.tier, ln.Addr(), sopts.obsEndpoints(false))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "signal received, draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining detection queue: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("closing http server: %w", err)
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}
