package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestConstLabelsRender: const labels appear on every series — plain
// counters, labelled counters, sampled gauges, and histogram suffixes — and
// the output still passes the strict linter.
func TestConstLabelsRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "plain counter.").With().Inc()
	reg.Counter("coded_total", "labelled counter.", "code").With("200").Inc()
	reg.GaugeFunc("depth", "sampled gauge.", func() float64 { return 3 })
	reg.Histogram("h_seconds", "histogram.", []float64{1, 2}).With().Observe(1.5)
	reg.SetConstLabels("replica", "7")

	var b strings.Builder
	if _, err := WriteMerged(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`c_total{replica="7"} 1`,
		`coded_total{code="200",replica="7"} 1`,
		`depth{replica="7"} 3`,
		`h_seconds_bucket{replica="7",le="2"} 1`,
		`h_seconds_bucket{replica="7",le="+Inf"} 1`,
		`h_seconds_sum{replica="7"} 1.5`,
		`h_seconds_count{replica="7"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("const-labelled exposition fails lint: %v\n%s", err, out)
	}
}

// TestConstLabelsValidation: malformed pairs panic like bad registrations.
func TestConstLabelsValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"dangling value": func() { NewRegistry().SetConstLabels("replica") },
		"bad label name": func() { NewRegistry().SetConstLabels("0replica", "1") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// newReplicaRegistry builds one replica-shaped registry: the same families
// everywhere, distinguished only by the const replica label.
func newReplicaRegistry(t *testing.T, replica string, requests uint64) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("advhunter_requests_total", "HTTP requests by status code.", "code").With("200").Add(requests)
	reg.GaugeFunc("advhunter_queue_depth", "Requests waiting.", func() float64 { return float64(requests) })
	reg.Histogram("advhunter_request_duration_seconds", "Latency.", []float64{0.1, 1}).With().Observe(0.5)
	reg.SetConstLabels("replica", replica)
	return reg
}

// TestWriteMerged: merging replica registries produces one HELP/TYPE block
// per family with every replica's series under it, passes the linter (no
// duplicate series, families contiguous), and skips nil/repeated registries.
func TestWriteMerged(t *testing.T) {
	r0 := newReplicaRegistry(t, "0", 5)
	r1 := newReplicaRegistry(t, "1", 9)
	other := NewRegistry()
	other.Counter("advhunter_cluster_routed_total", "Routed requests.", "policy").With("affinity").Inc()

	var b strings.Builder
	if _, err := WriteMerged(&b, other, r0, r1, nil, r0); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if got := strings.Count(out, "# TYPE advhunter_requests_total counter"); got != 1 {
		t.Fatalf("want exactly one TYPE line for the merged family, got %d:\n%s", got, out)
	}
	for _, want := range []string{
		`advhunter_requests_total{code="200",replica="0"} 5`,
		`advhunter_requests_total{code="200",replica="1"} 9`,
		`advhunter_queue_depth{replica="0"} 5`,
		`advhunter_queue_depth{replica="1"} 9`,
		`advhunter_cluster_routed_total{policy="affinity"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("merged exposition fails lint: %v\n%s", err, out)
	}
}

// TestWriteMergedZeroRegistries: merging nothing (or only nils) renders an
// empty, lint-clean exposition rather than erroring — a cluster with no
// replicas yet is a valid scrape target.
func TestWriteMergedZeroRegistries(t *testing.T) {
	var b strings.Builder
	n, err := WriteMerged(&b)
	if err != nil || n != 0 || b.String() != "" {
		t.Fatalf("WriteMerged() = %d,%v,%q; want 0,nil,empty", n, err, b.String())
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Fatalf("empty exposition fails lint: %v", err)
	}

	b.Reset()
	if _, err := WriteMerged(&b, nil, nil); err != nil || b.String() != "" {
		t.Fatalf("WriteMerged(nil, nil) = %v,%q; want nil,empty", err, b.String())
	}

	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 || rr.Body.Len() != 0 {
		t.Fatalf("empty Handler = %d %q", rr.Code, rr.Body.String())
	}
}

// TestWriteMergedMixedConstLabels: a registry without const labels merging a
// family that labelled registries also export must stay lint-clean — the
// unlabelled series and the replica-labelled ones are distinct, and the
// family block stays contiguous.
func TestWriteMergedMixedConstLabels(t *testing.T) {
	plain := NewRegistry()
	plain.Counter("advhunter_requests_total", "HTTP requests by status code.", "code").With("200").Add(2)
	r0 := newReplicaRegistry(t, "0", 5)
	r1 := newReplicaRegistry(t, "1", 9)

	var b strings.Builder
	if _, err := WriteMerged(&b, plain, r0, r1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`advhunter_requests_total{code="200"} 2`,
		`advhunter_requests_total{code="200",replica="0"} 5`,
		`advhunter_requests_total{code="200",replica="1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE advhunter_requests_total counter"); got != 1 {
		t.Fatalf("family block split: %d TYPE lines:\n%s", got, out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("mixed const-label merge fails lint: %v\n%s", err, out)
	}
}

// TestWriteMergedDefinitionMismatch: the same name registered differently on
// two registries is a programming error, caught loudly at render.
func TestWriteMergedDefinitionMismatch(t *testing.T) {
	a := NewRegistry()
	a.Counter("x_total", "a.").With().Inc()
	b := NewRegistry()
	b.Gauge("x_total", "a.").With().Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	var sb strings.Builder
	WriteMerged(&sb, a, b)
}
