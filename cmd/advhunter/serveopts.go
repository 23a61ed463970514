package main

// The serving-stack construction shared by `serve` and `cluster`: one flag
// surface (serveOpts), one detector+config assembly (buildServeStack), one
// replica factory (replicaBuilder), one flight recorder and alert engine
// (observe), and one listen-and-drain loop (listenAndDrain). Keeping both
// subcommands on this file means a server booted by either is configured,
// observed and drained identically.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// serveOpts holds the serving-stack flags shared by `serve` and `cluster` —
// one registration point, so a cluster replica is configured exactly like a
// single server.
type serveOpts struct {
	queue      *int
	timeout    *time.Duration
	event      *string
	truthCache *int
	tier       *string
	twinDir    *string
	margin     *float64

	// Observability: the flight recorder, request traces, and alerting are
	// all opt-in so the default boot stays byte-for-byte what it was.
	flight        *time.Duration
	flightSamples *int
	traceRing     *int
	traceLog      *string
	alerts        *bool
	alertFor      *time.Duration
}

func serveFlags(fs *flag.FlagSet) serveOpts {
	return serveOpts{
		queue:      fs.Int("queue", 64, "requests admitted beyond the replicas; the excess answers 429 before the body is read"),
		timeout:    fs.Duration("timeout", 10*time.Second, "per-request budget for waiting for a free replica (an expired request answers 504)"),
		event:      fs.String("event", detect.DefaultDecisionEvent.String(), "perf event whose channel decides the adversarial verdict: the decision event of the detectors fitted on a -detector miss; an artifact that decides by another channel is refused"),
		truthCache: fs.Int("truth-cache", 512, "truth-count memoisation cache entries (0 disables)"),
		tier:       fs.String("tier", serve.TierExact, "serving tier: exact, or auto (twin screens, uncertain verdicts escalate to exact; -margin -1 lets the twin decide every query)"),
		twinDir:    fs.String("twin-dir", "artifacts/twin", "precomputed twin-table directory (tables are profiled on a miss; used when -tier is auto)"),
		margin:     fs.Float64("margin", detect.DefaultMargin, "auto-tier escalation band around the decision channel's threshold (0 = default, negative = never escalate)"),

		flight:        fs.Duration("flight", 0, "flight-recorder sampling interval, also the -alerts evaluation cadence; enables /debug/flight (0 disables)"),
		flightSamples: fs.Int("flight-samples", 0, "flight-recorder ring depth per series (0 = default 256)"),
		traceRing:     fs.Int("trace-ring", 0, "request-trace ring capacity; enables /debug/trace (0 disables)"),
		traceLog:      fs.String("trace-log", "", "append finished request traces as JSONL to this file (implies a trace ring)"),
		alerts:        fs.Bool("alerts", false, "evaluate the stock alert rules (latency-p99, error-rate, detect-drift) on each -flight sample and expose /alerts (needs -flight)"),
		alertFor:      fs.Duration("alert-for", 0, "how long a rule must breach before it fires (0 = immediately)"),
	}
}

// validate rejects bad admission, tier, decision-event and observability
// selections — cheap checks run before any model loads, so a typo fails in
// milliseconds, not after training.
func (o serveOpts) validate() error {
	if *o.queue < 1 {
		return fmt.Errorf("-queue %d: want at least 1 request admitted beyond the replicas", *o.queue)
	}
	if *o.timeout <= 0 {
		return fmt.Errorf("-timeout %v: want a positive budget", *o.timeout)
	}
	switch *o.tier {
	case serve.TierExact, serve.TierAuto:
	default:
		return fmt.Errorf("unknown tier %q (have %s, %s)", *o.tier, serve.TierExact, serve.TierAuto)
	}
	if *o.flight < 0 {
		return fmt.Errorf("-flight %v: want a positive sampling interval, or 0 to disable", *o.flight)
	}
	if *o.alerts && *o.flight == 0 {
		return errors.New("-alerts needs -flight: the alert rules are evaluated on each flight-recorder sample")
	}
	_, err := hpc.ParseEvent(*o.event)
	return err
}

// config builds the serve.Config, loading the twin stack when the tier needs
// it; the twin detector decides by event, as det does. Call validate first.
func (o serveOpts) config(env *experiments.Env, dopts detectorOpts, event hpc.Event, det *detect.Fitted,
	workers int, logger *slog.Logger) (serve.Config, error) {
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
		ClassName:      func(c int) string { return data.ClassName(dataset, c) },
		Logger:         logger,
		TruthCacheSize: truthSize,
		TraceRing:      *o.traceRing,
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
	if *o.tier == serve.TierAuto {
		dcfg, err := dopts.config(event)
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
		cfg.Twin = tm
		cfg.TwinDetector = tdet
		cfg.EscalationMargin = *o.margin
	}
	return cfg, nil
}

// observe builds the flight recorder and the alert engine the flags turn on
// over regs — a server's registry, or a cluster's router registry followed
// by each replica's, so family queries and the alert rules see fleet totals
// — mounts /debug/flight and /alerts on mux, and starts the one loop that
// samples the recorder and then evaluates the rules every -flight. The alert
// gauges register on regs[0]. Neither touches a request; both only read the
// registries, so this is the one place either is built. stop halts the
// loop: call it once the server has drained. Call validate first.
func (o serveOpts) observe(mux *http.ServeMux, logger *slog.Logger, regs ...*obs.Registry) (stop func()) {
	if *o.flight <= 0 {
		return func() {}
	}
	rec := obs.NewRecorder(obs.RecorderConfig{Samples: *o.flightSamples}, regs...)
	mux.Handle("/debug/flight", rec.Handler())
	var alerts *obs.AlertEngine
	if *o.alerts {
		alerts = obs.NewAlertEngine(regs[0], rec, serve.DefaultAlertRules(),
			obs.AlertConfig{For: *o.alertFor, Logger: logger})
		mux.Handle("/alerts", alerts.Handler())
	}
	return rec.Run(*o.flight, alerts)
}

// obsEndpoints renders the observability endpoints the current flags turn on,
// for the boot announcement line. alwaysTrace is the cluster router, whose
// merged /debug/trace is registered unconditionally.
func (o serveOpts) obsEndpoints(alwaysTrace bool) string {
	var s string
	if *o.flight > 0 {
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

// buildServeStack is the one construction path behind `serve` and `cluster`:
// load (or fit) the detector, then assemble the serve.Config from the shared
// flag surface. -event is the decision event of every detector fitted here;
// a -detector artifact that decides by another channel is refused, so the
// served decision is the one the artifact was fitted and evaluated with.
func buildServeStack(env *experiments.Env, dopts detectorOpts, sopts serveOpts, copts commonOpts,
	logger *slog.Logger) (*detect.Fitted, serve.Config, error) {
	event, err := hpc.ParseEvent(*sopts.event)
	if err != nil {
		return nil, serve.Config{}, err
	}
	det, err := loadOrFitDetector(env, dopts, event)
	if err != nil {
		return nil, serve.Config{}, err
	}
	if err := det.DecidesBy(event); err != nil {
		return nil, serve.Config{}, fmt.Errorf("-detector %s with -event %v: %w", *dopts.path, event, err)
	}
	cfg, err := sopts.config(env, dopts, event, det, *copts.workers, logger)
	if err != nil {
		return nil, serve.Config{}, err
	}
	return det, cfg, nil
}

// replicaBuilder returns the cluster replica factory. serve.New takes
// ownership of the measurer and the twin measurer it is handed, so each
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

// listenAndDrain serves handler on addr until SIGTERM or SIGINT, then drains:
// drain finishes the admitted work, then the HTTP server closes. announce
// renders the boot line from the listener's actual address: with ":0" the
// kernel picks the port, and scripted callers (scripts/servesmoke) parse the
// line.
func listenAndDrain(addr string, handler http.Handler, drain func(context.Context) error,
	stdout io.Writer, announce func(net.Addr) string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintln(stdout, announce(ln.Addr()))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "signal received, draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("closing http server: %w", err)
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}
