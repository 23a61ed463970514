package workload

import "testing"

func TestParseMetrics(t *testing.T) {
	text := []byte(`# HELP advhunter_requests_total HTTP requests by status code.
# TYPE advhunter_requests_total counter
advhunter_requests_total{code="200"} 40
advhunter_requests_total{code="429"} 3
advhunter_queue_depth 2
advhunter_queue_capacity 64
advhunter_tier_duration_seconds_bucket{tier="twin",le="+Inf"} 12
advhunter_tier_duration_seconds_sum{tier="twin"} 0.25
garbage line without a float tail
`)
	s := ParseMetrics(text)
	if got := s.Get(`advhunter_requests_total{code="200"}`); got != 40 {
		t.Fatalf("200 count = %g, want 40", got)
	}
	if got := s.Get("advhunter_queue_capacity"); got != 64 {
		t.Fatalf("queue capacity = %g, want 64", got)
	}
	if got := s.Get(`advhunter_tier_duration_seconds_sum{tier="twin"}`); got != 0.25 {
		t.Fatalf("histogram sum = %g, want 0.25", got)
	}
	if got := s.Get("missing_series"); got != 0 {
		t.Fatalf("missing series = %g, want 0", got)
	}

	before := Snapshot{`advhunter_requests_total{code="200"}`: 30, "advhunter_queue_depth": 5}
	d := s.DeltaFrom(before)
	if got := d.Get(`advhunter_requests_total{code="200"}`); got != 10 {
		t.Fatalf("delta = %g, want 10", got)
	}
	if got := d.Get("advhunter_queue_depth"); got != 0 {
		t.Fatalf("negative delta not clamped: %g", got)
	}
}

// TestSnapshotSum: family sums aggregate across label variants — the shape a
// cluster scrape produces, one series per replica — while staying equal to
// Get for a bare single-server series.
func TestSnapshotSum(t *testing.T) {
	s := Snapshot{
		"advhunter_queue_depth":                            3,
		`advhunter_truth_cache_hits_total{replica="0"}`:    10,
		`advhunter_truth_cache_hits_total{replica="1"}`:    4,
		`advhunter_requests_total{code="429",replica="0"}`: 2,
		`advhunter_requests_total{code="429",replica="1"}`: 5,
		`advhunter_requests_total{code="200",replica="1"}`: 90,
		"advhunter_truth_cache_hits_total_other_family":    99, // prefix but not this family
		`advhunter_queue_depth_peak{replica="0"}`:          7,  // likewise
	}
	if got := s.Sum("advhunter_queue_depth"); got != 3 {
		t.Fatalf("bare-series sum = %g, want 3", got)
	}
	if got := s.Sum("advhunter_truth_cache_hits_total"); got != 14 {
		t.Fatalf("replica sum = %g, want 14", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "429"); got != 7 {
		t.Fatalf("SumMatch 429 = %g, want 7", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "200"); got != 90 {
		t.Fatalf("SumMatch 200 = %g, want 90", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "404"); got != 0 {
		t.Fatalf("SumMatch absent code = %g, want 0", got)
	}
}
