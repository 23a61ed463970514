package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/experiments"
)

// cmdCluster runs the multi-replica serving tier: N in-process serve
// replicas — each with its own admission gate, consumers, tier stack, and
// truth caches — behind a routing policy, with one merged /metrics page
// carrying every replica's series under its replica label.
func cmdCluster(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (defines the served model)")
	addr := fs.String("addr", ":8080", "listen address")
	replicas := fs.Int("replicas", 2, "in-process serve replicas behind the router")
	policy := fs.String("policy", cluster.PolicyRoundRobin, fmt.Sprintf("routing policy: %v", cluster.Policies))
	clusterInflight := fs.Int("cluster-inflight", 0, "cluster-level cap on concurrently admitted requests, on top of each replica's -max-inflight (0 = unlimited)")
	dopts := detectorFlags(fs)
	sopts := serveFlags(fs)
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
	if *replicas < 1 {
		return fmt.Errorf("-replicas %d: a cluster needs at least one replica", *replicas)
	}
	if !validPolicy(*policy) {
		return fmt.Errorf("unknown policy %q (have %v)", *policy, cluster.Policies)
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	det, cfg, err := buildServeStack(env, dopts, sopts, copts, logger)
	if err != nil {
		return err
	}
	c := cluster.New(sopts.clusterObs(cluster.Config{
		Replicas:    *replicas,
		Policy:      *policy,
		MaxInflight: *clusterInflight,
		Logger:      logger,
	}), replicaBuilder(env, det, cfg))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: c.Handler()}

	// Graceful drain on SIGTERM/SIGINT, mirroring `serve`: the cluster gate
	// stops admitting, every replica drains, then the listener closes.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	// Same announcement shape as `serve`: scripted callers
	// (scripts/servesmoke) parse the address out of this line.
	fmt.Fprintf(stdout, "serving %s (%s × %s, tier %s, %d replicas, policy %s) on %s — POST /detect, GET /healthz /readyz /metrics%s\n",
		env.Scn.ID, env.Scn.Dataset, env.Scn.Arch, *sopts.tier, *replicas, c.Policy(), ln.Addr(), sopts.obsEndpoints(true))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "signal received, draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining cluster replicas: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("closing http server: %w", err)
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}
