// Command hpcstat mimics `perf stat` for the simulated machine: it runs one
// (or several) inferences of a scenario model on the instrumented engine and
// prints the counter readings, optionally comparing a clean input against
// its adversarially perturbed twin.
//
// Usage:
//
//	hpcstat -scenario S2 [-image 3] [-repeats 10] [-adversarial] [-cache DIR]
package main

import (
	"flag"
	"fmt"
	"os"

	"advhunter/internal/attack"
	"advhunter/internal/data"
	"advhunter/internal/experiments"
	"advhunter/internal/uarch/hpc"
)

func main() {
	scenario := flag.String("scenario", "S2", "scenario id (S1, S2, S3, CS)")
	image := flag.Int("image", 0, "test-image index to measure")
	repeats := flag.Int("repeats", 10, "measurement repetitions (perf-style -r)")
	adversarial := flag.Bool("adversarial", false, "also measure a targeted-FGSM twin of the image")
	eps := flag.Float64("eps", 0.5, "attack strength for -adversarial")
	cacheDir := flag.String("cache", "artifacts/cache", "model cache directory")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	opts := experiments.Options{CacheDir: *cacheDir}
	if *verbose {
		opts.Log = os.Stderr
	}
	env, err := experiments.LoadEnv(*scenario, opts)
	if err != nil {
		fail(err)
	}
	test := env.Data().Test
	if *image < 0 || *image >= len(test) {
		fail(fmt.Errorf("image index %d out of range [0,%d)", *image, len(test)))
	}
	sample := test[*image]
	env.Meas.R = *repeats

	m := env.Meas.Measure(sample.X)
	pred, counts := m.Pred, m.Counts
	fmt.Printf("Performance counter stats for inference of test image %d (%d runs):\n\n",
		*image, *repeats)
	printCounts(counts)
	fmt.Printf("\n  true class:      %q\n", data.ClassName(env.Scn.Dataset, sample.Label))
	fmt.Printf("  predicted class: %q\n", data.ClassName(env.Scn.Dataset, pred))

	if !*adversarial {
		return
	}
	atk := attack.NewTargetedFGSM(*eps, env.Scn.TargetClass)
	adv := atk.Perturb(env.Model, sample.X, sample.Label)
	am := env.Meas.Measure(adv)
	advPred, advCounts := am.Pred, am.Counts
	fmt.Printf("\nPerformance counter stats for its targeted-FGSM twin (ε=%g → %q):\n\n",
		*eps, data.ClassName(env.Scn.Dataset, env.Scn.TargetClass))
	printCounts(advCounts)
	fmt.Printf("\n  predicted class: %q\n", data.ClassName(env.Scn.Dataset, advPred))

	fmt.Println("\ndelta (adversarial − clean):")
	for _, e := range hpc.AllEvents() {
		d := advCounts.Get(e) - counts.Get(e)
		rel := 0.0
		if counts.Get(e) != 0 {
			rel = 100 * d / counts.Get(e)
		}
		fmt.Printf("  %22s  %+12.1f  (%+.2f%%)\n", e, d, rel)
	}
}

// printCounts renders one reading in perf stat's visual style.
func printCounts(c hpc.Counts) {
	for _, e := range hpc.AllEvents() {
		fmt.Printf("  %16.1f      %s\n", c.Get(e), e)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hpcstat: %v\n", err)
	os.Exit(1)
}
