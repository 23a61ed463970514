package main

// The serving-stack construction shared by `serve`, `loadgen`, and `cluster`:
// one flag surface (serveOpts), one detector+config assembly (buildServeStack),
// one replica factory (replicaBuilder), and the loopback boot helper the load
// generator uses when no -target is given. Keeping all three subcommands on
// this file means a server booted by any of them is configured identically.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// serveOpts holds the serving-stack flags shared by `serve`, `cluster`, and
// the load generator's self-boot path — one registration point, so a server
// booted by `loadgen` is configured exactly like one booted by `serve`.
type serveOpts struct {
	queue       *int
	timeout     *time.Duration
	event       *string
	truthCache  *int
	maxInflight *int
	tier        *string
	twinDir     *string
	margin      *float64

	// Observability: the flight recorder, request traces, and alerting are
	// all opt-in so the default boot stays byte-for-byte what it was.
	flight        *time.Duration
	flightSamples *int
	traceRing     *int
	traceLog      *string
	alerts        *bool
	alertInterval *time.Duration
	alertFor      *time.Duration
}

func serveFlags(fs *flag.FlagSet) serveOpts {
	return serveOpts{
		queue:       fs.Int("queue", 64, "admission queue capacity (full queue answers 429)"),
		timeout:     fs.Duration("timeout", 10*time.Second, "per-request budget including queueing"),
		event:       fs.String("event", hpc.CacheMisses.String(), "perf event driving the adversarial verdict"),
		truthCache:  fs.Int("truth-cache", 512, "truth-count memoisation cache entries (0 disables)"),
		maxInflight: fs.Int("max-inflight", 0, "cap on concurrently admitted requests, independent of -queue (0 = unlimited)"),
		tier:        fs.String("tier", serve.TierExact, "serving tier: exact, twin (analytical twin only), or auto (twin screens, uncertain verdicts escalate to exact)"),
		twinDir:     fs.String("twin-dir", "artifacts/twin", "precomputed twin-table directory (tables are profiled on a miss; used when -tier is twin or auto)"),
		margin:      fs.Float64("margin", 0.15, "auto-tier escalation band around the detector threshold (0 = default, negative = never escalate)"),

		flight:        fs.Duration("flight", 0, "flight-recorder sampling interval (0 disables; negative = manual mode, sampled only when /debug/flight is queried)"),
		flightSamples: fs.Int("flight-samples", 0, "flight-recorder ring depth per series (0 = default 256)"),
		traceRing:     fs.Int("trace-ring", 0, "request-trace ring capacity; enables /debug/trace (0 disables)"),
		traceLog:      fs.String("trace-log", "", "append finished request traces as JSONL to this file (implies a trace ring)"),
		alerts:        fs.Bool("alerts", false, "run the stock alert rules (latency-p99, error-rate, detect-drift) and expose /alerts"),
		alertInterval: fs.Duration("alert-interval", 0, "background alert-evaluation cadence (0 = evaluate on each /alerts request instead)"),
		alertFor:      fs.Duration("alert-for", 0, "how long a rule must breach before it fires (0 = immediately)"),
	}
}

// validate rejects bad tier and decision-event selections — cheap checks run
// before any model loads, so a typo fails in milliseconds, not after
// training.
func (o serveOpts) validate() error {
	switch *o.tier {
	case serve.TierExact, serve.TierTwin, serve.TierAuto:
	default:
		return fmt.Errorf("unknown tier %q (have %s, %s, %s)", *o.tier, serve.TierExact, serve.TierTwin, serve.TierAuto)
	}
	_, err := hpc.ParseEvent(*o.event)
	return err
}

// config builds the serve.Config, loading the twin stack when the tier needs
// it. Call validate first.
func (o serveOpts) config(env *experiments.Env, dopts detectorOpts, det *detect.Fitted,
	workers int, logger *slog.Logger) (serve.Config, error) {
	tier := *o.tier
	decision, err := hpc.ParseEvent(*o.event)
	if err != nil {
		return serve.Config{}, err
	}
	// The flag's 0 means "off"; the Config's 0 means "default" and negative
	// means "off" (so the zero Config still serves with memoisation on).
	truthSize := *o.truthCache
	if truthSize <= 0 {
		truthSize = -1
	}
	dataset := env.Scn.Dataset
	cfg := serve.Config{
		QueueSize:      *o.queue,
		Workers:        workers,
		Timeout:        *o.timeout,
		DecisionEvent:  decision,
		ClassName:      func(c int) string { return data.ClassName(dataset, c) },
		Logger:         logger,
		TruthCacheSize: truthSize,
		MaxInflight:    *o.maxInflight,
		FlightInterval: *o.flight,
		FlightSamples:  *o.flightSamples,
		TraceRing:      *o.traceRing,
		AlertRules:     o.alertRules(),
		AlertInterval:  *o.alertInterval,
		AlertFor:       *o.alertFor,
	}
	if *o.traceLog != "" {
		f, err := os.OpenFile(*o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return serve.Config{}, fmt.Errorf("opening trace log: %w", err)
		}
		// The file stays open for the process lifetime: traces stream until
		// shutdown, and O_APPEND keeps concurrent replica writes whole lines.
		cfg.TraceLog = f
	}
	if tier != serve.TierExact {
		dcfg, err := dopts.config()
		if err != nil {
			return serve.Config{}, err
		}
		// The twin screens with a detector of the same backend as the exact
		// tier's, recalibrated on twin-measured counts (TwinBackend explains
		// why thresholds fitted on exact counts would misfire on twin
		// readings). The table loads from -twin-dir when fresh — write it
		// ahead of time with `advhunter twin-profile` — and is silently
		// re-profiled on any model/machine hash mismatch.
		tm, tdet, _, err := env.TwinBackend(filepath.Join(*o.twinDir, env.Scn.ID+".gob"), twin.DefaultKnots, det.Kind(), dcfg)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.Tier = tier
		cfg.Twin = tm
		cfg.TwinDetector = tdet
		cfg.EscalationMargin = *o.margin
	}
	return cfg, nil
}

// alertRules returns a fresh stock rule set when -alerts is on, nil
// otherwise. Rules are stateful, so every engine (each replica, or the
// cluster router) must get its own set — hence a constructor, not a field.
func (o serveOpts) alertRules() []obs.Rule {
	if o.alerts == nil || !*o.alerts {
		return nil
	}
	return serve.DefaultAlertRules()
}

// obsEndpoints renders the observability endpoints the current flags turn on,
// for the boot announcement line. alwaysTrace is the cluster router, whose
// merged /debug/trace is registered unconditionally.
func (o serveOpts) obsEndpoints(alwaysTrace bool) string {
	var s string
	if *o.flight != 0 || *o.alerts {
		s += " /debug/flight"
	}
	if alwaysTrace || *o.traceRing > 0 || *o.traceLog != "" {
		s += " /debug/trace"
	}
	if *o.alerts {
		s += " /alerts"
	}
	return s
}

// clusterObs copies the observability selections to the cluster router's
// config, where the flight recorder spans the router and every replica
// registry and the alert engine judges fleet-wide aggregates. The per-replica
// serve.Config keeps its own recorder and rules too: fleet totals answer "is
// the service healthy", per-replica history answers "which replica isn't".
func (o serveOpts) clusterObs(ccfg cluster.Config) cluster.Config {
	ccfg.FlightInterval = *o.flight
	ccfg.FlightSamples = *o.flightSamples
	ccfg.AlertRules = o.alertRules()
	ccfg.AlertInterval = *o.alertInterval
	ccfg.AlertFor = *o.alertFor
	return ccfg
}

// buildServeStack is the one construction path behind `serve`, `cluster`, and
// the load generator's self-boot: load (or fit) the detector, then assemble
// the serve.Config from the shared flag surface.
func buildServeStack(env *experiments.Env, dopts detectorOpts, sopts serveOpts, copts commonOpts,
	logger *slog.Logger) (*detect.Fitted, serve.Config, error) {
	det, err := loadOrFitDetector(env, dopts)
	if err != nil {
		return nil, serve.Config{}, err
	}
	cfg, err := sopts.config(env, dopts, det, *copts.workers, logger)
	if err != nil {
		return nil, serve.Config{}, err
	}
	return det, cfg, nil
}

// replicaBuilder returns the cluster replica factory. serve.New takes
// ownership of the measurer and the twin backend it is handed, so each
// replica must get its own clones — sharing either across replicas is a data
// race. The fitted detector is read-only and safely shared, exactly as the
// single-server path shares it across its worker pool.
func replicaBuilder(env *experiments.Env, det *detect.Fitted, cfg serve.Config) func(replica int) *serve.Server {
	return func(int) *serve.Server {
		rcfg := cfg
		if rcfg.Twin != nil {
			rcfg.Twin = cfg.Twin.Clone()
		}
		return serve.New(env.Meas.Clone(), det, rcfg)
	}
}

// validPolicy reports whether p names a known routing policy — checked up
// front so a typo returns a usage error instead of cluster.New's panic.
func validPolicy(p string) bool {
	for _, q := range cluster.Policies {
		if q == p {
			return true
		}
	}
	return false
}

// bootedServer is one in-process serve instance the load generator drives
// when no -target is given.
type bootedServer struct {
	base string
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
}

// bootServer starts a serve instance on a kernel-picked loopback port.
func bootServer(env *experiments.Env, det *detect.Fitted, cfg serve.Config) (*bootedServer, error) {
	srv := serve.New(env.Meas.Clone(), det, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("loadgen server", slog.String("err", err.Error()))
		}
	}()
	return &bootedServer{base: "http://" + ln.Addr().String(), srv: srv, http: hs, ln: ln}, nil
}

func (b *bootedServer) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	b.http.Shutdown(ctx)
}
