package workload

import (
	"fmt"

	"advhunter/internal/data"
)

// Cohort is one client population with a distinct query mix: a weight (its
// share of the traffic) and a sample pool it draws queries from — clean test
// images, say, or FGSM and MIM adversarial examples.
type Cohort struct {
	// Name labels the cohort in traces ("clean", "fgsm", …).
	Name string
	// Weight is the cohort's share of the traffic, relative to the other
	// cohorts' weights (any positive scale).
	Weight float64
	// Pool holds the samples the cohort draws from, uniformly at random.
	Pool []data.Sample
}

// Mix is a weighted set of cohorts.
type Mix []Cohort

// validate rejects empty mixes, non-positive weights, empty pools, and
// duplicate cohort names (callers tell events apart by cohort name).
func (m Mix) validate() error {
	if len(m) == 0 {
		return fmt.Errorf("workload: empty cohort mix")
	}
	seen := make(map[string]bool, len(m))
	for _, c := range m {
		if c.Name == "" {
			return fmt.Errorf("workload: cohort with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: duplicate cohort %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight <= 0 {
			return fmt.Errorf("workload: cohort %q has non-positive weight %g", c.Name, c.Weight)
		}
		if len(c.Pool) == 0 {
			return fmt.Errorf("workload: cohort %q has an empty sample pool", c.Name)
		}
	}
	return nil
}

// weights returns the mix's weight vector for rng.Choice.
func (m Mix) weights() []float64 {
	w := make([]float64, len(m))
	for i, c := range m {
		w[i] = c.Weight
	}
	return w
}
