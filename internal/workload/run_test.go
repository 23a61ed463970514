package workload

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRunCancelWaitsForInflight: cancelling an open-loop run stops dispatch
// but Run still waits for the requests already in flight, so the report
// counts them and no issuer writes an outcome after Run has returned (the
// race detector holds that line).
func TestRunCancelWaitsForInflight(t *testing.T) {
	const slow = 500 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/detect" {
			time.Sleep(slow)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// Four requests go out before the deadline; the fifth is due long after.
	tr := &Trace{Name: "cancel", Arrival: ArrivalSpec{Kind: Poisson, Rate: 1}}
	for _, at := range []time.Duration{0, 10, 20, 30, 5000} {
		tr.Events = append(tr.Events, Event{At: at * time.Millisecond, Cohort: "clean", Body: []byte(`{}`)})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, ts.URL, tr, RunOptions{SampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Completed; got != 4 {
		t.Fatalf("report counts %d completed requests, want the 4 dispatched before cancellation", got)
	}
	if res.Outcomes[4].Status != 0 {
		t.Fatalf("event due after cancellation was sent: status %d", res.Outcomes[4].Status)
	}
}
