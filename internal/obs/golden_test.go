package obs

import (
	"strings"
	"testing"
)

// goldenRegistries builds two replica registries that between them exercise
// every rendering path: integer counters past 1e6, a labelled counter whose
// children were created out of order, labelled and sampled gauges (one past
// 1e6, where float and integer spellings differ), a histogram, escaped help
// and label values, and const labels.
func goldenRegistries() []*Registry {
	var regs []*Registry
	for i, replica := range []string{"0", "1"} {
		reg := NewRegistry()
		reg.Counter("advhunter_scans_total", "Scans run.").With().Add(1234567 + uint64(i))
		codes := reg.Counter("advhunter_requests_total", "HTTP requests by status code.", "code")
		for j, code := range []string{"503", "200", "429", "500", "400"} {
			codes.With(code).Add(uint64(10*j + i))
		}
		depth := reg.Gauge("advhunter_inflight", "In-flight requests by \"tier\".\nSecond line \\ here.", "tier")
		depth.With("exact").Set(2.5)
		depth.With(`a"b\c`).Set(-1)
		depth.With("auto").Set(1e6)
		n := float64(i)
		reg.GaugeFunc("advhunter_uptime_seconds", "Seconds since boot.", func() float64 { return 3600.25 + n })
		h := reg.Histogram("advhunter_request_duration_seconds", "Latency.", []float64{0.005, 0.1, 1}, "route")
		for _, v := range []float64{0.001, 0.05, 0.05, 0.5, 7} {
			h.With("detect").Observe(v + n)
		}
		h.With("metrics").Observe(0.002)
		reg.SetConstLabels("replica", replica)
		regs = append(regs, reg)
	}
	return regs
}

// TestWriteMergedGolden pins one full merged exposition page byte for byte,
// so a change to the render path cannot move a single character of /metrics
// unnoticed, and checks the page still passes Lint.
func TestWriteMergedGolden(t *testing.T) {
	var b strings.Builder
	if _, err := WriteMerged(&b, goldenRegistries()...); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenPage {
		t.Errorf("exposition drifted from the golden page.\ngot:\n%s\nwant:\n%s", got, goldenPage)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Fatalf("golden page fails lint: %v", err)
	}
}

const goldenPage = `# HELP advhunter_inflight In-flight requests by "tier".\nSecond line \\ here.
# TYPE advhunter_inflight gauge
advhunter_inflight{tier="a\"b\\c",replica="0"} -1
advhunter_inflight{tier="auto",replica="0"} 1e+06
advhunter_inflight{tier="exact",replica="0"} 2.5
advhunter_inflight{tier="a\"b\\c",replica="1"} -1
advhunter_inflight{tier="auto",replica="1"} 1e+06
advhunter_inflight{tier="exact",replica="1"} 2.5
# HELP advhunter_request_duration_seconds Latency.
# TYPE advhunter_request_duration_seconds histogram
advhunter_request_duration_seconds_bucket{route="detect",replica="0",le="0.005"} 1
advhunter_request_duration_seconds_bucket{route="detect",replica="0",le="0.1"} 3
advhunter_request_duration_seconds_bucket{route="detect",replica="0",le="1"} 4
advhunter_request_duration_seconds_bucket{route="detect",replica="0",le="+Inf"} 5
advhunter_request_duration_seconds_sum{route="detect",replica="0"} 7.601
advhunter_request_duration_seconds_count{route="detect",replica="0"} 5
advhunter_request_duration_seconds_bucket{route="metrics",replica="0",le="0.005"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="0",le="0.1"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="0",le="1"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="0",le="+Inf"} 1
advhunter_request_duration_seconds_sum{route="metrics",replica="0"} 0.002
advhunter_request_duration_seconds_count{route="metrics",replica="0"} 1
advhunter_request_duration_seconds_bucket{route="detect",replica="1",le="0.005"} 0
advhunter_request_duration_seconds_bucket{route="detect",replica="1",le="0.1"} 0
advhunter_request_duration_seconds_bucket{route="detect",replica="1",le="1"} 0
advhunter_request_duration_seconds_bucket{route="detect",replica="1",le="+Inf"} 5
advhunter_request_duration_seconds_sum{route="detect",replica="1"} 12.600999999999999
advhunter_request_duration_seconds_count{route="detect",replica="1"} 5
advhunter_request_duration_seconds_bucket{route="metrics",replica="1",le="0.005"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="1",le="0.1"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="1",le="1"} 1
advhunter_request_duration_seconds_bucket{route="metrics",replica="1",le="+Inf"} 1
advhunter_request_duration_seconds_sum{route="metrics",replica="1"} 0.002
advhunter_request_duration_seconds_count{route="metrics",replica="1"} 1
# HELP advhunter_requests_total HTTP requests by status code.
# TYPE advhunter_requests_total counter
advhunter_requests_total{code="200",replica="0"} 10
advhunter_requests_total{code="400",replica="0"} 40
advhunter_requests_total{code="429",replica="0"} 20
advhunter_requests_total{code="500",replica="0"} 30
advhunter_requests_total{code="503",replica="0"} 0
advhunter_requests_total{code="200",replica="1"} 11
advhunter_requests_total{code="400",replica="1"} 41
advhunter_requests_total{code="429",replica="1"} 21
advhunter_requests_total{code="500",replica="1"} 31
advhunter_requests_total{code="503",replica="1"} 1
# HELP advhunter_scans_total Scans run.
# TYPE advhunter_scans_total counter
advhunter_scans_total{replica="0"} 1234567
advhunter_scans_total{replica="1"} 1234568
# HELP advhunter_uptime_seconds Seconds since boot.
# TYPE advhunter_uptime_seconds gauge
advhunter_uptime_seconds{replica="0"} 3600.25
advhunter_uptime_seconds{replica="1"} 3601.25
`
