package detect

import (
	"encoding/gob"
	"fmt"
	"sort"

	"advhunter/internal/core"
	"advhunter/internal/uarch/hpc"
)

// Backend is one registered detector family: a name, a one-line description
// for CLI listings, and a factory producing the family's unfitted scorers
// for a given template. The factory pairs with a gob codec: each backend's
// init registers its concrete scorer types under stable names, which is
// what lets persist write one self-describing envelope for any backend.
type Backend struct {
	Kind        string
	Description string
	// New builds the backend's scorers for a template; Fit is called on
	// each by the generic fitting path.
	New func(t *core.Template, cfg Config) ([]Scorer, error)
}

var backends = map[string]Backend{}

// Register adds a backend to the registry. It panics on duplicate names —
// registration happens in package init, where a duplicate is a programming
// error, not a runtime condition.
func Register(b Backend) {
	if b.Kind == "" || b.New == nil {
		panic("detect: Register needs a kind and a factory")
	}
	if _, dup := backends[b.Kind]; dup {
		panic(fmt.Sprintf("detect: backend %q registered twice", b.Kind))
	}
	backends[b.Kind] = b
}

// registerPerEvent registers a per-event backend: one scorer per template
// event, built by newScorer from the event and its template position n, with
// the scorer type gob-registered as "detect.<kind>Scorer". Every per-event
// scorer persists n as Index; the gmm fit seed reads it.
func registerPerEvent(kind, description string, newScorer func(e hpc.Event, n int) Scorer) {
	gob.RegisterName("detect."+kind+"Scorer", newScorer(0, 0))
	Register(Backend{
		Kind:        kind,
		Description: description,
		New: func(t *core.Template, cfg Config) ([]Scorer, error) {
			scorers := make([]Scorer, len(t.Events))
			for n, e := range t.Events {
				scorers[n] = newScorer(e, n)
			}
			return scorers, nil
		},
	})
}

// fitColumns is the fitting frame of the per-event scorers: it calls fit
// with event e's template column of every category the template can model,
// in category order, and stops at the first error.
func fitColumns(t *core.Template, e hpc.Event, fit func(c int, col []float64) error) error {
	for c := 0; c < t.Classes; c++ {
		if !canModel(t.Rows[c]) {
			continue
		}
		if err := fit(c, t.Column(c, e)); err != nil {
			return err
		}
	}
	return nil
}

// Lookup resolves a backend by name.
func Lookup(kind string) (Backend, bool) {
	b, ok := backends[kind]
	return b, ok
}

// Kinds lists the registered backend names, sorted.
func Kinds() []string {
	ks := make([]string, 0, len(backends))
	for k := range backends {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Describe returns a backend's one-line description ("" if unknown).
func Describe(kind string) string {
	return backends[kind].Description
}
