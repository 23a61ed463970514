package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"

	"advhunter/internal/cluster"
	"advhunter/internal/experiments"
)

// cmdCluster runs the multi-replica serving tier: N in-process serve
// replicas — each with its own admission bound, engine replicas, tier stack,
// and truth caches — behind a fingerprint-affinity router, with one merged
// /metrics page carrying every replica's series under its replica label.
func cmdCluster(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (defines the served model)")
	addr := fs.String("addr", ":8080", "listen address")
	replicas := fs.Int("replicas", 2, "in-process serve replicas behind the router")
	policy := fs.String("policy", cluster.PolicyAffinity, "routing policy: affinity, the only one (accepted for scripts that pass it)")
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
	if *policy != cluster.PolicyAffinity {
		return fmt.Errorf("unknown policy %q (have %s)", *policy, cluster.PolicyAffinity)
	}
	env, err := experiments.LoadEnv(*scenario, copts.options())
	if err != nil {
		return err
	}
	det, cfg, err := buildServeStack(env, dopts, sopts, copts, logger)
	if err != nil {
		return err
	}
	c := cluster.New(cluster.Config{Replicas: *replicas, Logger: logger}, replicaBuilder(env, det, cfg))
	// One fleet recorder and alert engine over the router's registry and
	// every replica's: replicas build no observability of their own.
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	stop := sopts.observe(mux, logger, c.Registries()...)
	defer stop() // once listenAndDrain has drained c
	return listenAndDrain(*addr, mux, c.Shutdown, stdout, func(a net.Addr) string {
		return fmt.Sprintf("serving %s (%s × %s, tier %s, %d replicas, policy %s) on %s — POST /detect, GET /healthz /readyz /metrics%s",
			env.Scn.ID, env.Scn.Dataset, env.Scn.Arch, *sopts.tier, *replicas, cluster.PolicyAffinity, a, sopts.obsEndpoints(true))
	})
}
