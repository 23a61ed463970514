// Quickstart: the complete AdvHunter pipeline on one small scenario —
// train a CNN, craft adversarial examples against it, build the defender's
// HPC template (offline phase), then detect adversarial inputs from
// hard-label predictions plus simulated performance-counter readings
// (online phase).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"advhunter/internal/attack"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/models"
	"advhunter/internal/train"
	"advhunter/internal/uarch/hpc"
)

func main() {
	log.SetFlags(0)

	// 1. The vendor's proprietary model: a CNN trained on FashionMNIST-like
	// data. The defender will only ever see its hard labels.
	fmt.Println("== 1. training the target model ==")
	ds := data.MustSynth("fashionmnist", 42, 40, 10)
	model := models.MustBuild("simplecnn", ds.C, ds.H, ds.W, ds.Classes, 7)
	cfg := train.DefaultConfig()
	cfg.LearningRate = 0.02
	cfg.Epochs = 20
	cfg.TargetAccuracy = 0.999
	cfg.Log = os.Stdout
	res := train.SGD(model, ds, cfg)
	fmt.Printf("clean test accuracy: %.1f%%\n\n", 100*res.TestAccuracy)

	// 2. The defender's measurement stack: the model deployed on a machine
	// whose hardware performance counters we can read (simulated here), each
	// reading repeated R=10 times as in the paper.
	meas := core.NewMeasurer(engine.NewDefault(model), 1)

	// 3. Offline phase: measure clean validation images, fit one GMM per
	// (category, event), derive 3σ thresholds.
	fmt.Println("== 2. offline phase: building the benign template ==")
	tpl := core.BuildTemplate(meas, ds.Train, ds.Classes, hpc.CoreEvents())
	det, err := detect.Fit("gmm", tpl, detect.DefaultConfig())
	if err != nil {
		log.Fatalf("fitting detector: %v", err)
	}
	fmt.Printf("fitted GMMs for %d events × %d categories\n\n", len(det.Events()), ds.Classes)

	// 4. The adversary: white-box targeted FGSM steering images into class
	// 'shirt'.
	const target = 6 // shirt
	fmt.Println("== 3. adversary crafts targeted FGSM examples ==")
	atk := attack.NewTargetedFGSM(0.5, target)
	var sources []data.Sample
	for _, s := range ds.Test {
		if s.Label != target && len(sources) < 40 {
			sources = append(sources, s)
		}
	}
	crafted := attack.Craft(model, atk, sources)
	advs := attack.Successful(atk, crafted)
	fmt.Printf("attack success rate: %.0f%% (%d usable AEs)\n\n", 100*crafted.SuccessRate, len(advs))

	// 5. Online phase: scan unknown inputs. The defender sees only the
	// hard label and the counter reading.
	fmt.Println("== 4. online phase: scanning unknown inputs ==")
	cleanFlagged, cleanTotal := 0, 0
	for _, s := range ds.Test[:40] {
		if det.Detect(meas.Measure(s.X)).FlaggedBy(hpc.CacheMisses) {
			cleanFlagged++
		}
		cleanTotal++
	}
	advFlagged := 0
	for _, s := range advs {
		if det.Detect(meas.Measure(s.X)).FlaggedBy(hpc.CacheMisses) {
			advFlagged++
		}
	}
	fmt.Printf("clean inputs flagged:       %d / %d\n", cleanFlagged, cleanTotal)
	fmt.Printf("adversarial inputs flagged: %d / %d\n", advFlagged, len(advs))
	fmt.Println("\nAdvHunter detected the adversarial inputs from hard labels + HPC readings alone.")
}
