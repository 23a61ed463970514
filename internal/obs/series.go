package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// SeriesSample is one series value as EachSeries reports it — one rendered
// exposition line, since WriteMerged prints exactly these samples, so
// consumers (the flight recorder) key their stores exactly like a scraper
// parsing /metrics would.
type SeriesSample struct {
	// Family is the metric family name (advhunter_requests_total).
	Family string
	// Kind is the family kind: counter, gauge or histogram.
	Kind string
	// Key is the full rendered series key — family name plus any histogram
	// suffix plus the label block, const labels included — unique within one
	// registry and, when const labels identify the registry (a replica
	// label), across a merged fleet too.
	Key string
	// Group is the Key with any histogram le pair removed: the handle that
	// ties one histogram's buckets to its _sum and _count. Scalars have
	// Group == Key.
	Group string
	// Suffix is "" for counters and gauges, or "bucket", "sum", "count" for
	// histogram component series.
	Suffix string
	// Le is the bucket's upper bound for Suffix "bucket" (+Inf included).
	Le float64
	// Value is the series value at the walk. Histogram buckets are
	// cumulative, exactly as rendered.
	Value float64
}

// valueText spells the value as the exposition does: counters, histogram
// buckets and _count are integer cells and render as integers (exact below
// 2^53); everything else renders in the shortest float form.
func (s SeriesSample) valueText() string {
	if s.Kind == kindCounter || s.Suffix == "bucket" || s.Suffix == "count" {
		return strconv.FormatUint(uint64(s.Value), 10)
	}
	return formatFloat(s.Value)
}

// EachSeries walks every series of the registry in render order and calls fn
// with one SeriesSample per exposition line (histograms contribute their
// buckets, _sum and _count individually). WriteMerged renders through the
// same walk, so the values fn sees are what a scrape at the same instant
// would have rendered, and walking is as safe against concurrent recording
// as scraping is.
func (r *Registry) EachSeries(fn func(SeriesSample)) {
	fams, cn, cv := r.snapshotFamilies()
	for _, f := range fams {
		f.each(cn, cv, fn)
	}
}

// each walks one family's series with its children sorted by label values,
// appending the owning registry's const-label pairs to every key.
func (f *family) each(cn, cv []string, fn func(SeriesSample)) {
	f.mu.RLock()
	sampled := f.sampled
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.RUnlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].labelValues, "\xff") < strings.Join(kids[j].labelValues, "\xff")
	})

	names := f.labels
	if len(cn) > 0 {
		names = append(append(make([]string, 0, len(f.labels)+len(cn)), f.labels...), cn...)
	}
	values := func(c *child) []string {
		if len(cv) == 0 {
			return c.labelValues
		}
		return append(append(make([]string, 0, len(c.labelValues)+len(cv)), c.labelValues...), cv...)
	}
	if sampled != nil {
		key := f.name + labelString(cn, cv, "", "")
		fn(SeriesSample{Family: f.name, Kind: f.kind, Key: key, Group: key, Value: sampled()})
		return
	}
	for _, c := range kids {
		lv := values(c)
		switch f.kind {
		case kindCounter:
			key := f.name + labelString(names, lv, "", "")
			fn(SeriesSample{Family: f.name, Kind: f.kind, Key: key, Group: key, Value: float64(c.count.v.Load())})
		case kindGauge:
			key := f.name + labelString(names, lv, "", "")
			fn(SeriesSample{Family: f.name, Kind: f.kind, Key: key, Group: key, Value: c.gauge.load()})
		case kindHistogram:
			group := f.name + labelString(names, lv, "", "")
			// Observe bumps a bin before the count, so loading the count
			// first means every observation it includes is already in the
			// bins read below: one landing mid-walk can raise a finite
			// bucket but never shows up in +Inf alone. The +Inf bucket is
			// the count, raised to cum when such an observation's count
			// bump has not landed yet, so it always equals _count.
			count := c.count.v.Load()
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += c.bins[i].v.Load()
				fn(SeriesSample{
					Family: f.name, Kind: f.kind,
					Key:   f.name + "_bucket" + labelString(names, lv, "le", formatFloat(ub)),
					Group: group, Suffix: "bucket", Le: ub, Value: float64(cum),
				})
			}
			if count < cum {
				count = cum
			}
			fn(SeriesSample{
				Family: f.name, Kind: f.kind,
				Key:   f.name + "_bucket" + labelString(names, lv, "le", "+Inf"),
				Group: group, Suffix: "bucket", Le: math.Inf(1), Value: float64(count),
			})
			fn(SeriesSample{
				Family: f.name, Kind: f.kind,
				Key:   f.name + "_sum" + labelString(names, lv, "", ""),
				Group: group, Suffix: "sum", Value: c.sum.load(),
			})
			fn(SeriesSample{
				Family: f.name, Kind: f.kind,
				Key:   f.name + "_count" + labelString(names, lv, "", ""),
				Group: group, Suffix: "count", Value: float64(count),
			})
		}
	}
}
