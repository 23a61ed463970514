package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
	"advhunter/internal/tensor"
	"advhunter/internal/twin"
)

// layerEvents is how many of a workload's events the in-process layer
// timings replay through each module's public calls.
const layerEvents = 64

// layerTimes times calls into each module's public functions from outside
// the program, on the workload's first layerEvents events, and returns the
// median per-call cost of each under its per-layer metric name. It also
// times the set-up calls a server makes at boot.
func layerTimes(st *stream, twinPath string) (map[string]float64, error) {
	out := make(map[string]float64)
	t0 := time.Now()
	env, err := experiments.LoadEnv(scn.ID, experiments.Options{CacheDir: filepath.Join("artifacts", "cache")})
	if err != nil {
		return nil, err
	}
	out["setup.env_s"] = time.Since(t0).Seconds()
	cfg := detect.DefaultConfig()
	cfg.GMM.Seed = 1 // serve's -seed default
	t0 = time.Now()
	det, err := env.DetectorKind("gmm", cfg)
	if err != nil {
		return nil, err
	}
	out["setup.detector_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	tm, _, _, err := env.TwinBackend(twinPath, twin.DefaultKnots, det.Kind(), cfg)
	if err != nil {
		return nil, err
	}
	out["setup.twin_s"] = time.Since(t0).Seconds()

	meta := env.Model.Meta
	shape := [3]int{meta.InC, meta.InH, meta.InW}
	bodies := make([][]byte, layerEvents)
	xs := make([]*tensor.Tensor, layerEvents)
	for k := range bodies {
		bodies[k] = st.body(k, nil)
		req, err := serve.DecodeRequest(bodies[k], shape)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", k, err)
		}
		xs[k] = req.Tensor()
	}
	// timed calls f(i) for i < n, reps passes over them, and returns the
	// median call time in unit.
	timed := func(reps, n int, unit time.Duration, f func(i int)) float64 {
		var ts []float64
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				t := time.Now()
				f(i)
				ts = append(ts, float64(time.Since(t))/float64(unit))
			}
		}
		return median(ts)
	}
	each := func(reps int, unit time.Duration, f func(k int)) float64 {
		return timed(reps, len(xs), unit, f)
	}

	out["serve.decode_ms"] = each(3, time.Millisecond, func(k int) {
		if _, err := serve.DecodeRequest(bodies[k], shape); err != nil {
			panic(err)
		}
	})
	ring := cluster.NewRing(2, cluster.DefaultVNodes)
	out["cluster.route_ms"] = each(3, time.Millisecond, func(k int) {
		req, err := serve.DecodeRequest(bodies[k], shape)
		if err != nil {
			panic(err)
		}
		ring.Lookup(core.Fingerprint(req.Tensor()))
	})
	const fpCalls = 20
	out["core.fingerprint_us"] = each(3, time.Microsecond, func(k int) {
		for i := 0; i < fpCalls; i++ {
			core.Fingerprint(xs[k])
		}
	}) / fpCalls

	// Exact measurement: the first call on each distinct input misses the
	// truth cache, every later call hits it.
	m := env.Meas
	cache := core.NewTruthCache(512) // serve's -truth-cache default
	var miss []float64
	for k, x := range xs {
		t := time.Now()
		if _, hit := m.MeasureAtCached(cache, uint64(k), x); !hit {
			miss = append(miss, float64(time.Since(t))/float64(time.Millisecond))
		}
	}
	out["core.measure_miss_ms"] = median(miss)
	meas := make([]core.Measurement, len(xs))
	out["core.measure_hit_us"] = each(3, time.Microsecond, func(k int) {
		meas[k], _ = m.MeasureAtCached(cache, uint64(k), xs[k])
	})

	// Engine: the machine-free forward pass, and the μarch replay as what a
	// full simulated inference costs beyond it on the same distinct inputs.
	e := m.Engine
	sp := make([]float64, e.NumLeaves())
	var distinct []*tensor.Tensor
	seen := make(map[uint64]bool)
	for _, x := range xs {
		if fp := core.Fingerprint(x); !seen[fp] {
			seen[fp] = true
			distinct = append(distinct, x)
		}
	}
	fwd := timed(2, len(distinct), time.Millisecond, func(i int) { e.ForwardStats(distinct[i], sp) })
	out["engine.forward_ms"] = fwd
	out["engine.replay_ms"] = timed(2, len(distinct), time.Millisecond, func(i int) { e.InferConf(distinct[i]) }) - fwd

	out["twin.measure_ms"] = each(1, time.Millisecond, func(k int) { tm.MeasureAt(uint64(k), xs[k]) })

	const detectCalls = 10
	out["detect.score_us"] = each(3, time.Microsecond, func(k int) {
		for i := 0; i < detectCalls; i++ {
			det.Detect(meas[k])
		}
	}) / detectCalls

	resps := make([]serve.Response, len(xs))
	for k := range resps {
		resps[k] = response(det, uint64(k), det.Detect(meas[k]))
	}
	out["serve.encode_us"] = each(3, time.Microsecond, func(k int) {
		if err := json.NewEncoder(io.Discard).Encode(resps[k]); err != nil {
			panic(err)
		}
	})
	return out, nil
}

// response builds the serve.Response the server would answer for v.
func response(det *detect.Fitted, idx uint64, v detect.Verdict) serve.Response {
	r := serve.Response{
		Index:          idx,
		PredictedClass: v.PredictedClass,
		ClassName:      data.ClassName(scn.Dataset, v.PredictedClass),
		Backend:        det.Kind(),
		Modelled:       v.Modelled,
		Adversarial:    v.Fused,
		Scores:         make(map[string]float64, len(v.Channels)),
		Flags:          make(map[string]bool, len(v.Channels)),
	}
	for i, ch := range v.Channels {
		r.Scores[ch] = v.Scores[i]
		r.Flags[ch] = v.Flags[i]
	}
	return r
}

// budgetTolerance bounds |p50 − Σ stage means| as a share of p50.
const budgetTolerance = 0.10

// budgetRow is one stage of the per-request latency budget.
type budgetRow struct {
	stage string
	ms    float64
}

// budget is the latency budget of a traced run.
type budget struct {
	p50      float64     // client p50 of the traced window, ms
	rows     []budgetRow // mean self time per stage over the p50 band
	residual float64     // p50 − Σ rows: time no stage accounts for
	other    float64     // median handler time outside every span, ms
	matched  int         // requests with both a client time and a trace
	band     int         // requests in the p50 band
}

// Stage names of the budget rows that have no server span.
const (
	stageTransport = "transport+client" // client latency − handler total: connection, router hop, client
	stageNoSpan    = "handler-no-span"  // handler total − spans: body read, response write, wake-ups
)

// stageBudget splits each traced request's client latency into the self
// times of its server spans (time inside nested spans goes to the innermost
// one), the handler time no span covers, and the rest (transport, any router
// hop, the client). It averages each part over the requests whose client
// latency lies between the 45th and 55th percentiles, so the parts add up to
// the mean of that band, which sits next to the p50.
func stageBudget(traces []obs.TraceView, win window) (budget, error) {
	lat := make(map[int]float64, len(win.outcomes))
	var all []float64
	for _, o := range win.outcomes {
		if o.ok() {
			ms := float64(o.latency) / float64(time.Millisecond)
			lat[o.k] = ms
			all = append(all, ms)
		}
	}
	sort.Float64s(all)
	b := budget{p50: quantile(all, 0.5)}
	lo, hi := quantile(all, 0.45), quantile(all, 0.55)
	sums := make(map[string]float64)
	var others []float64
	for _, tv := range traces {
		k, err := strconv.Atoi(strings.TrimPrefix(tv.ID, "q"))
		l, ok := lat[k]
		if err != nil || !ok || tv.Status != 200 {
			continue
		}
		b.matched++
		self := selfTimes(tv)
		covered := 0.0
		for _, v := range self {
			covered += v
		}
		others = append(others, tv.TotalMs-covered)
		if l < lo || l > hi {
			continue
		}
		b.band++
		for st, v := range self {
			sums[st] += v
		}
		sums[stageNoSpan] += tv.TotalMs - covered
		sums[stageTransport] += l - tv.TotalMs
	}
	if b.band == 0 {
		return b, fmt.Errorf("no traced request fell in the p50 band (%d matched of %d traces)", b.matched, len(traces))
	}
	total := 0.0
	for st, v := range sums {
		b.rows = append(b.rows, budgetRow{stage: st, ms: v / float64(b.band)})
		total += v / float64(b.band)
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].ms > b.rows[j].ms })
	b.residual = b.p50 - total
	b.other = median(others)
	return b, nil
}

// selfTimes attributes every instant of a trace to the shortest span open
// at that instant and returns each stage's total.
func selfTimes(tv obs.TraceView) map[string]float64 {
	var cuts []float64
	for _, s := range tv.Stages {
		cuts = append(cuts, s.OffsetMs, s.OffsetMs+s.DurationMs)
	}
	sort.Float64s(cuts)
	self := make(map[string]float64)
	for i := 0; i+1 < len(cuts); i++ {
		a, z := cuts[i], cuts[i+1]
		if z <= a {
			continue
		}
		if best := innermost(tv, a, z, -1); best >= 0 {
			self[tv.Stages[best].Stage] += z - a
		}
	}
	return self
}

// innermost returns the index of the shortest stage of tv, other than skip,
// that covers [a, z] (offsets in ms); -1 when none does.
func innermost(tv obs.TraceView, a, z float64, skip int) int {
	best := -1
	for j, s := range tv.Stages {
		if j != skip && s.OffsetMs <= a && z <= s.OffsetMs+s.DurationMs &&
			(best < 0 || s.DurationMs < tv.Stages[best].DurationMs) {
			best = j
		}
	}
	return best
}

// span is one traced interval as writeSpans exports it.
type span struct {
	RequestID string `json:"request_id"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // Unix time
	EndNs     int64  `json:"end_ns"`
	Parent    string `json:"parent,omitempty"`
}

// writeSpans writes the traced window as spans, one JSON object per line:
// each request's client span, the server handler span under it, and each
// server stage under the innermost span that contains it.
func writeSpans(path string, traces []obs.TraceView, win window) error {
	from := make(map[string]outcome, len(win.outcomes))
	for _, o := range win.outcomes {
		from["q"+strconv.Itoa(o.k)] = o
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ms := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	for _, tv := range traces {
		o, ok := from[tv.ID]
		if !ok {
			continue
		}
		h := tv.Start.UnixNano()
		spans := []span{
			{tv.ID, "request", o.from.UnixNano(), o.from.Add(o.latency).UnixNano(), ""},
			{tv.ID, "handler", h, h + ms(tv.TotalMs), "request"},
		}
		for j, s := range tv.Stages {
			parent := "handler"
			if p := innermost(tv, s.OffsetMs, s.OffsetMs+s.DurationMs, j); p >= 0 {
				parent = tv.Stages[p].Stage
			}
			spans = append(spans, span{tv.ID, s.Stage, h + ms(s.OffsetMs), h + ms(s.OffsetMs+s.DurationMs), parent})
		}
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
