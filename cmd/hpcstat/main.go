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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"advhunter/internal/attack"
	"advhunter/internal/data"
	"advhunter/internal/experiments"
	"advhunter/internal/uarch/hpc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so its flag checks are testable. Exit codes:
// 0 ok, 1 failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpcstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "S2", "scenario id (S1, S2, S3, CS)")
	image := fs.Int("image", 0, "test-image index to measure")
	repeats := fs.Int("repeats", 10, "measurement repetitions (perf-style -r)")
	adversarial := fs.Bool("adversarial", false, "also measure a targeted-FGSM twin of the image")
	eps := fs.Float64("eps", 0.5, "attack strength for -adversarial")
	cacheDir := fs.String("cache", "artifacts/cache", "model cache directory")
	verbose := fs.Bool("v", false, "log progress")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *repeats < 1 {
		fmt.Fprintf(stderr, "hpcstat: -repeats must be at least 1, got %d\n", *repeats)
		return 2
	}

	opts := experiments.Options{CacheDir: *cacheDir}
	if *verbose {
		opts.Log = stderr
	}
	env, err := experiments.LoadEnv(*scenario, opts)
	if err != nil {
		return fail(stderr, err)
	}
	test := env.Data().Test
	if *image < 0 || *image >= len(test) {
		return fail(stderr, fmt.Errorf("image index %d out of range [0,%d)", *image, len(test)))
	}
	sample := test[*image]
	env.Meas.R = *repeats

	m := env.Meas.Measure(sample.X)
	pred, counts := m.Pred, m.Counts
	fmt.Fprintf(stdout, "Performance counter stats for inference of test image %d (%d runs):\n\n",
		*image, *repeats)
	printCounts(stdout, counts)
	fmt.Fprintf(stdout, "\n  true class:      %q\n", data.ClassName(env.Scn.Dataset, sample.Label))
	fmt.Fprintf(stdout, "  predicted class: %q\n", data.ClassName(env.Scn.Dataset, pred))

	if !*adversarial {
		return 0
	}
	atk := attack.NewTargetedFGSM(*eps, env.Scn.TargetClass)
	adv := atk.Perturb(env.Model, sample.X, sample.Label)
	am := env.Meas.Measure(adv)
	advPred, advCounts := am.Pred, am.Counts
	fmt.Fprintf(stdout, "\nPerformance counter stats for its targeted-FGSM twin (ε=%g → %q):\n\n",
		*eps, data.ClassName(env.Scn.Dataset, env.Scn.TargetClass))
	printCounts(stdout, advCounts)
	fmt.Fprintf(stdout, "\n  predicted class: %q\n", data.ClassName(env.Scn.Dataset, advPred))

	fmt.Fprintln(stdout, "\ndelta (adversarial − clean):")
	for _, e := range hpc.AllEvents() {
		d := advCounts.Get(e) - counts.Get(e)
		rel := 0.0
		if counts.Get(e) != 0 {
			rel = 100 * d / counts.Get(e)
		}
		fmt.Fprintf(stdout, "  %22s  %+12.1f  (%+.2f%%)\n", e, d, rel)
	}
	return 0
}

// printCounts renders one reading in perf stat's visual style.
func printCounts(w io.Writer, c hpc.Counts) {
	for _, e := range hpc.AllEvents() {
		fmt.Fprintf(w, "  %16.1f      %s\n", c.Get(e), e)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "hpcstat: %v\n", err)
	return 1
}
