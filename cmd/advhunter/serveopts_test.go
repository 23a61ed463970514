package main

import (
	"context"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/experiments"
	"advhunter/internal/models"
	"advhunter/internal/serve"
	"advhunter/internal/uarch/hpc"
)

// TestReplicaBuilderStripsObs: cluster replicas build neither a flight
// recorder nor an alert engine, whatever the shared serve.Config asks for.
// The cluster router runs the fleet's, and alert rules hold per-engine state
// (a drift rule's cursors and fitted baseline) that replicas must not share.
func TestReplicaBuilderStripsObs(t *testing.T) {
	ds := data.MustSynth("fashionmnist", 99, 24, 1)
	m := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 9)
	env := &experiments.Env{Meas: core.NewMeasurer(engine.NewDefault(m), 4321)}
	tpl := core.BuildTemplate(env.Meas.Clone(), ds.Train, ds.Classes, hpc.CoreEvents())
	det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Workers: 1, FlightInterval: -1, AlertRules: serve.DefaultAlertRules()}
	s := replicaBuilder(env, det, cfg)(0)
	defer s.Shutdown(context.Background())
	if s.Flight() != nil || s.Alerts() != nil {
		t.Fatalf("replica built its own observability: flight recorder %t, alert engine %t",
			s.Flight() != nil, s.Alerts() != nil)
	}
}
