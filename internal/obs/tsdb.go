package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RecorderConfig tunes a flight recorder.
type RecorderConfig struct {
	// Samples caps each series ring (default 256). Sampled every second,
	// that is ~4 minutes of history per series.
	Samples int
}

// Recorder is the flight recorder: each Sample snapshots every registry
// series into a fixed-size ring of timestamped values, giving the running
// process a queryable short-term history — windowed counter
// rates, histogram quantiles over the last N seconds — where a bare /metrics
// scrape only has the current point. It is strictly observe-only: sampling
// walks the registries exactly like a scrape does. It runs no goroutine of
// its own; Run is the one clock that samples it.
//
// Series keys are the rendered exposition keys (const labels included), so a
// recorder over a cluster's merged registry set holds per-replica series side
// by side and family-level queries aggregate the fleet for free.
type Recorder struct {
	cfg  RecorderConfig
	regs []*Registry

	mu     sync.RWMutex
	series map[string]*ringSeries
	order  []string // insertion order, for stable /debug/flight output
}

// ringSeries is one series' history: a circular buffer of (time, value).
type ringSeries struct {
	info       SeriesSample // metadata; Value unused
	t          []int64      // unix nanos, len == cap == ring size
	v          []float64
	head, size int // head = next write slot
}

func (s *ringSeries) push(t int64, v float64) {
	s.t[s.head], s.v[s.head] = t, v
	s.head = (s.head + 1) % len(s.t)
	if s.size < len(s.t) {
		s.size++
	}
}

// at returns the i-th stored sample, 0 = oldest.
func (s *ringSeries) at(i int) (int64, float64) {
	j := (s.head - s.size + i + len(s.t)) % len(s.t)
	return s.t[j], s.v[j]
}

// window returns the first and last samples within [since, +inf), or ok=false
// when fewer than two samples fall inside — too little history for a rate.
func (s *ringSeries) window(since int64) (t0, t1 int64, v0, v1 float64, ok bool) {
	first := -1
	for i := 0; i < s.size; i++ {
		if t, _ := s.at(i); t >= since {
			first = i
			break
		}
	}
	if first < 0 || s.size-first < 2 {
		return 0, 0, 0, 0, false
	}
	t0, v0 = s.at(first)
	t1, v1 = s.at(s.size - 1)
	return t0, t1, v0, v1, true
}

// NewRecorder builds a recorder over the given registries (nil and repeated
// entries are skipped) and takes one immediate sample so Latest works from
// the first instant.
func NewRecorder(cfg RecorderConfig, regs ...*Registry) *Recorder {
	if cfg.Samples <= 0 {
		cfg.Samples = 256
	}
	rc := &Recorder{cfg: cfg, series: make(map[string]*ringSeries)}
	seen := make(map[*Registry]bool, len(regs))
	for _, r := range regs {
		if r == nil || seen[r] {
			continue
		}
		seen[r] = true
		rc.regs = append(rc.regs, r)
	}
	rc.Sample()
	return rc
}

// Run starts the one observability loop: every tick it samples the
// registries and then, when alerts is non-nil, evaluates its rules against
// the fresh sample, so the recorder and the alert engine can never run on
// different clocks. stop halts the loop and waits for its goroutine to exit;
// the recorded history and the alert states stay queryable. stop is
// idempotent.
func (rc *Recorder) Run(every time.Duration, alerts *AlertEngine) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rc.Sample()
				if alerts != nil {
					alerts.EvalOnce(time.Now())
				}
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Sample takes one sweep over every registry now. Run calls it on each tick;
// tests call it directly for deterministic rings.
func (rc *Recorder) Sample() {
	now := time.Now().UnixNano()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, r := range rc.regs {
		r.EachSeries(func(s SeriesSample) {
			rs, ok := rc.series[s.Key]
			if !ok {
				rs = &ringSeries{
					info: SeriesSample{Family: s.Family, Kind: s.Kind, Key: s.Key,
						Group: s.Group, Suffix: s.Suffix, Le: s.Le},
					t: make([]int64, rc.cfg.Samples),
					v: make([]float64, rc.cfg.Samples),
				}
				rc.series[s.Key] = rs
				rc.order = append(rc.order, s.Key)
			}
			rs.push(now, s.Value)
		})
	}
}

// Latest returns a series' most recent sampled value by exact key.
func (rc *Recorder) Latest(key string) (float64, bool) {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	rs, ok := rc.series[key]
	if !ok || rs.size == 0 {
		return 0, false
	}
	_, v := rs.at(rs.size - 1)
	return v, true
}

// LatestFamily sums the most recent sampled value of every scalar series of
// one family (counters, gauges — histogram component series are excluded).
// Against a merged cluster recorder this is the fleet total.
func (rc *Recorder) LatestFamily(family string) float64 {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	var total float64
	for _, rs := range rc.series {
		if rs.info.Family != family || rs.info.Suffix != "" || rs.size == 0 {
			continue
		}
		_, v := rs.at(rs.size - 1)
		total += v
	}
	return total
}

// Rate sums the per-second rate over the last window of every counter series
// the predicate keeps (match receives the series key). Series with fewer than
// two samples in the window contribute nothing.
func (rc *Recorder) Rate(window time.Duration, match func(key string) bool) float64 {
	since := time.Now().Add(-window).UnixNano()
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	var total float64
	for _, rs := range rc.series {
		if rs.info.Kind != kindCounter || rs.info.Suffix != "" {
			continue
		}
		if match != nil && !match(rs.info.Key) {
			continue
		}
		t0, t1, v0, v1, ok := rs.window(since)
		if !ok || t1 == t0 {
			continue
		}
		if d := v1 - v0; d > 0 {
			total += d / (float64(t1-t0) / float64(time.Second))
		}
	}
	return total
}

// RateFamily sums the windowed per-second rate of one counter family's
// series — the fleet-wide family rate on a merged recorder.
func (rc *Recorder) RateFamily(family string, window time.Duration) float64 {
	prefix := family + "{"
	return rc.Rate(window, func(key string) bool {
		return key == family || strings.HasPrefix(key, prefix)
	})
}

// Quantile estimates the q-quantile (0 < q < 1) of one histogram family's
// observations over the last window, merging every series of the family
// (per-replica groups on a cluster recorder sum into one distribution).
// It differences each bucket's cumulative count across the window, then
// interpolates linearly inside the bucket holding the q-th observation —
// standard histogram_quantile semantics. NaN means no observations landed in
// the window (or too little history), which callers treat as "not ready".
func (rc *Recorder) Quantile(family string, q float64, window time.Duration) float64 {
	since := time.Now().Add(-window).UnixNano()
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	// Window delta per upper bound, summed across groups.
	deltas := make(map[float64]float64)
	for _, rs := range rc.series {
		if rs.info.Family != family || rs.info.Suffix != "bucket" {
			continue
		}
		_, _, v0, v1, ok := rs.window(since)
		if !ok {
			continue
		}
		if d := v1 - v0; d > 0 {
			deltas[rs.info.Le] += d
		}
	}
	if len(deltas) == 0 {
		return math.NaN()
	}
	bounds := make([]float64, 0, len(deltas))
	for le := range deltas {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	total := deltas[bounds[len(bounds)-1]] // the +Inf (or widest) bucket is cumulative
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	lower := 0.0
	for i, le := range bounds {
		count := deltas[le]
		if count < rank {
			lower = le
			continue
		}
		if math.IsInf(le, 1) {
			// The observation sits past the last finite bound; report that
			// bound — the honest answer a bounded layout can give.
			return lower
		}
		prev := 0.0
		if i > 0 {
			prev = deltas[bounds[i-1]]
		}
		if count == prev {
			return le
		}
		return lower + (le-lower)*(rank-prev)/(count-prev)
	}
	return lower
}

// flightSeries is one series' summary on the /debug/flight page.
type flightSeries struct {
	Key     string      `json:"key"`
	Kind    string      `json:"kind"`
	Samples int         `json:"samples"`
	First   time.Time   `json:"first"`
	Last    time.Time   `json:"last"`
	Latest  float64     `json:"latest"`
	Points  [][2]string `json:"points,omitempty"` // [RFC3339, value]
}

// flightPage is the /debug/flight JSON document.
type flightPage struct {
	Now           time.Time                     `json:"now"`
	WindowSecs    float64                       `json:"window_seconds"`
	SeriesCount   int                           `json:"series_count"`
	Rates         map[string]float64            `json:"rates"`     // counter family → req/s over window
	Quantiles     map[string]map[string]float64 `json:"quantiles"` // histogram family → p50/p90/p99
	Series        []flightSeries                `json:"series"`
	FilterApplied string                        `json:"filter,omitempty"`
}

// Handler serves the recorder as /debug/flight JSON: windowed per-family
// counter rates and histogram quantiles up front (?window=30s, default 60s),
// then every series' ring summary. ?series=substr filters the series list,
// ?points=N inlines each listed series' last N raw samples.
func (rc *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		window := time.Minute
		if s := r.URL.Query().Get("window"); s != "" {
			if d, err := time.ParseDuration(s); err == nil && d > 0 {
				window = d
			}
		}
		filter := r.URL.Query().Get("series")
		points, _ := strconv.Atoi(r.URL.Query().Get("points"))

		page := flightPage{
			Now:           time.Now(),
			WindowSecs:    window.Seconds(),
			Rates:         make(map[string]float64),
			Quantiles:     make(map[string]map[string]float64),
			FilterApplied: filter,
		}

		rc.mu.RLock()
		counterFams := make(map[string]bool)
		histFams := make(map[string]bool)
		for _, rs := range rc.series {
			switch rs.info.Kind {
			case kindCounter:
				counterFams[rs.info.Family] = true
			case kindHistogram:
				histFams[rs.info.Family] = true
			}
		}
		page.SeriesCount = len(rc.series)
		keys := append([]string(nil), rc.order...)
		rc.mu.RUnlock()

		for fam := range counterFams {
			page.Rates[fam] = rc.RateFamily(fam, window)
		}
		for fam := range histFams {
			qs := make(map[string]float64, 3)
			for _, q := range []struct {
				name string
				q    float64
			}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
				if v := rc.Quantile(fam, q.q, window); !math.IsNaN(v) {
					qs[q.name] = v
				}
			}
			if len(qs) > 0 {
				page.Quantiles[fam] = qs
			}
		}

		rc.mu.RLock()
		for _, key := range keys {
			if filter != "" && !strings.Contains(key, filter) {
				continue
			}
			rs := rc.series[key]
			if rs == nil || rs.size == 0 {
				continue
			}
			t0, _ := rs.at(0)
			t1, v1 := rs.at(rs.size - 1)
			fs := flightSeries{
				Key: key, Kind: rs.info.Kind, Samples: rs.size,
				First: time.Unix(0, t0), Last: time.Unix(0, t1), Latest: v1,
			}
			if points > 0 {
				start := rs.size - points
				if start < 0 {
					start = 0
				}
				for i := start; i < rs.size; i++ {
					t, v := rs.at(i)
					fs.Points = append(fs.Points, [2]string{
						time.Unix(0, t).Format(time.RFC3339Nano),
						strconv.FormatFloat(v, 'g', -1, 64),
					})
				}
			}
			page.Series = append(page.Series, fs)
		}
		rc.mu.RUnlock()

		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(page)
	})
}
