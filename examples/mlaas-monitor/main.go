// MLaaS monitor: AdvHunter deployed as a guard in front of a simulated
// cloud inference service — now through the real serving stack. The guard
// is fitted once and persisted (detect.Save), reloaded the way a
// fresh serving process would load it, and exposed as the HTTP JSON service
// (internal/serve), which decides each request on its handler goroutine
// over a pool of engine replicas. A stream of queries — mostly legitimate,
// with adversarial probing mixed in — is fired by eight concurrent clients,
// and every decision comes back over the wire.
// Because each query carries an explicit noise index, the verdicts are
// identical no matter how the clients interleave.
//
// Run with:
//
//	go run ./examples/mlaas-monitor
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"advhunter/internal/attack"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/metrics"
	"advhunter/internal/models"
	"advhunter/internal/rng"
	"advhunter/internal/serve"
	"advhunter/internal/train"
	"advhunter/internal/uarch/hpc"
)

// query is one inference request entering the service.
type query struct {
	sample      data.Sample
	adversarial bool
}

func main() {
	log.SetFlags(0)

	// Service setup: an image-classification endpoint (CIFAR10-like ResNet).
	fmt.Println("bootstrapping service: training the classification model…")
	ds := data.MustSynth("cifar10", 9, 40, 12)
	model := models.MustBuild("resnet18", ds.C, ds.H, ds.W, ds.Classes, 3)
	cfg := train.DefaultConfig()
	cfg.Epochs = 12
	cfg.TargetAccuracy = 0.999
	res := train.SGD(model, ds, cfg)
	fmt.Printf("model ready (%.1f%% clean accuracy)\n", 100*res.TestAccuracy)

	// Guard setup: offline phase on clean validation traffic, then persist —
	// fit once, serve many. A serving process only needs the artifact.
	meas := core.NewMeasurer(engine.NewDefault(model), 77)
	fmt.Println("guard: measuring clean validation traffic (offline phase)…")
	val := data.MustSynth("cifar10", 10, 60, 0).Train
	tpl := core.BuildTemplate(meas.Clone(), val, ds.Classes, hpc.CoreEvents())
	fitted, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		log.Fatalf("guard: %v", err)
	}
	dir, err := os.MkdirTemp("", "advhunter-monitor-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	artifact := filepath.Join(dir, "detector.gob")
	if err := detect.Save(artifact, fitted); err != nil {
		log.Fatalf("guard: persisting detector: %v", err)
	}
	det, ok := detect.TryLoad(artifact)
	if !ok {
		log.Fatal("guard: persisted detector failed to load")
	}
	fmt.Printf("guard: detector persisted to and reloaded from %s\n", filepath.Base(artifact))

	// Online phase: the detection service, exactly as `advhunter serve`
	// runs it — bounded admission, each request decided on its handler
	// goroutine while it holds one of the engine replicas.
	srv := serve.New(meas, det, serve.Config{
		Workers:   4,
		ClassName: func(c int) string { return data.ClassName("cifar10", c) },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	fmt.Printf("guard: service up at %s (POST /detect)\n\n", ts.URL)

	// The attacker probes the service with images steered toward 'frog'.
	const target = 6 // "frog"
	fmt.Printf("adversary: preparing targeted FGSM examples toward %q…\n",
		data.ClassName("cifar10", target))
	atk := attack.NewTargetedFGSM(0.5, target)
	var sources []data.Sample
	for _, s := range ds.Test {
		if s.Label != target && len(sources) < 80 {
			sources = append(sources, s)
		}
	}
	advs := attack.Successful(atk, attack.Craft(model, atk, sources))

	// Build the query stream: legitimate traffic with adversarial bursts.
	r := rng.New(2024)
	var stream []query
	for _, s := range ds.Test {
		stream = append(stream, query{sample: s})
	}
	for _, s := range advs {
		stream = append(stream, query{sample: s, adversarial: true})
	}
	r.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	if len(stream) > 150 {
		stream = stream[:150]
	}

	// Serve the stream through 8 concurrent clients. Verdicts land in
	// stream order because each query carries its stream position as the
	// noise index and the response echoes it back.
	fmt.Printf("serving %d queries through 8 concurrent clients…\n", len(stream))
	verdicts := make([]serve.Response, len(stream))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				verdicts[i] = postDetect(ts.URL, serve.NewRequest(stream[i].sample.X, uint64(i)))
			}
		}()
	}
	for i := range stream {
		work <- i
	}
	close(work)
	wg.Wait()

	var conf metrics.Confusion
	alerts := 0
	for i, q := range stream {
		v := verdicts[i]
		conf.Add(q.adversarial, v.Adversarial)
		if v.Adversarial {
			alerts++
			kind := "FALSE ALARM"
			if q.adversarial {
				kind = "ATTACK CAUGHT"
			}
			fmt.Printf("  query %3d: predicted %-28q  ⚠ ALERT (%s)\n", i, v.ClassName, kind)
		}
	}

	fmt.Printf("\nshift report: %d alerts over %d queries\n", alerts, len(stream))
	fmt.Printf("  adversarial queries: %d (caught %d, missed %d)\n",
		conf.TP+conf.FN, conf.TP, conf.FN)
	fmt.Printf("  legitimate queries:  %d (false alarms %d)\n", conf.TN+conf.FP, conf.FP)
	fmt.Printf("  precision %.2f  recall %.2f  F1 %.3f\n",
		conf.Precision(), conf.Recall(), conf.F1())

	// The service's own view of the traffic, from /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatalf("scraping metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nservice metrics (excerpt):")
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("advhunter_scans_total")) ||
			bytes.HasPrefix(line, []byte("advhunter_flagged_total")) ||
			bytes.HasPrefix(line, []byte("advhunter_requests_total")) {
			fmt.Printf("  %s\n", line)
		}
	}
}

// postDetect posts one query and decodes the verdict; any service error is
// fatal (this is a demo stream, not production retry logic).
func postDetect(url string, req serve.Request) serve.Response {
	raw, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url+"/detect", "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatalf("detect: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("detect: reading response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("detect: status %d: %s", resp.StatusCode, body)
	}
	var v serve.Response
	if err := json.Unmarshal(body, &v); err != nil {
		log.Fatalf("detect: decoding verdict: %v", err)
	}
	return v
}
