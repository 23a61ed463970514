package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's connection and goroutine budget: nproc on
// the 2-vCPU hosts this benchmark is sized for.
const clients = 2

// outcome is one request as the client saw it.
type outcome struct {
	k       int
	latency time.Duration // closed loop: send to last body byte; open loop: due time to last body byte
	done    time.Duration // last body byte, from the window start
	from    time.Time     // where latency starts: the send (closed loop) or the due time (open loop)
	status  int           // 0 on a transport error
	bad     string        // why the request failed, or why its 200 answer did not parse
	adv     bool
	pred    int
}

func (o outcome) ok() bool { return o.status == http.StatusOK && o.bad == "" }

// verdict is the part of a /detect answer the benchmark checks.
type verdict struct {
	Index          *uint64 `json:"index"`
	PredictedClass *int    `json:"predicted_class"`
	Adversarial    *bool   `json:"adversarial"`
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// send posts event k's body and parses the verdict. The request id "q<k>"
// ties the request to the server's trace record.
func send(c *http.Client, base string, k int, body []byte) outcome {
	o := outcome{k: k}
	req, err := http.NewRequest(http.MethodPost, base+"/detect", bytes.NewReader(body))
	if err != nil {
		o.bad = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "q"+strconv.Itoa(k))
	resp, err := c.Do(req)
	if err != nil {
		o.bad = err.Error()
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.bad = err.Error()
		return o
	}
	o.status = resp.StatusCode
	if o.status != http.StatusOK {
		return o
	}
	var v verdict
	switch err := json.Unmarshal(raw, &v); {
	case err != nil:
		o.bad = err.Error()
	case v.Index == nil || v.PredictedClass == nil || v.Adversarial == nil:
		o.bad = "verdict lacks index, predicted_class or adversarial"
	case *v.Index != uint64(k):
		o.bad = fmt.Sprintf("verdict index %d for request %d", *v.Index, k)
	default:
		o.adv, o.pred = *v.Adversarial, *v.PredictedClass
	}
	return o
}

// probe sends events 0..probeEvents-1 one at a time.
func probe(c *http.Client, base string, st *stream) []outcome {
	out := make([]outcome, probeEvents)
	var buf []byte
	for k := range out {
		buf = st.body(k, buf)
		out[k] = send(c, base, k, buf)
	}
	return out
}

// window is the result of one timed run.
type window struct {
	outcomes []outcome
	wall     time.Duration   // first send (or due time) to last completion
	late     []time.Duration // open loop: how late the generator woke for each event
}

// closedLoop runs `clients` callers, each sending its next event as soon as
// its previous answer arrives, from event `from` until d has passed since
// start or the stream ends.
func closedLoop(c *http.Client, base string, st *stream, from int, start time.Time, d time.Duration) window {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]outcome, clients)
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(end) {
				k := int(next.Add(1) - 1)
				if k >= st.n {
					return
				}
				buf = st.body(k, buf)
				t0 := time.Now()
				o := send(c, base, k, buf)
				o.from, o.latency = t0, time.Since(t0)
				o.done = time.Since(start)
				per[w] = append(per[w], o)
			}
		}(w)
	}
	wg.Wait()
	return window{outcomes: merge(per), wall: time.Since(start)}
}

// openLoop replays events from..n-1 on their schedule, shifted so event
// `from` is due at start, over at most `clients` connections. Latency runs from
// each event's due time, so a stall that delays later sends counts against
// them. late records how far past the due time the generator woke for each
// event, leaving out any wait for a free connection.
func openLoop(c *http.Client, base string, st *stream, from int, start time.Time) window {
	slots := make(chan struct{}, clients)
	var mu sync.Mutex
	var outs []outcome
	var late []time.Duration
	var wg sync.WaitGroup
	for k := from; k < st.n; k++ {
		due := start.Add(st.due[k] - st.due[from])
		ready := time.Now()
		if wait := due.Sub(ready); wait > 0 {
			time.Sleep(wait)
		}
		woke := time.Now()
		if ready.After(due) {
			late = append(late, woke.Sub(ready))
		} else {
			late = append(late, woke.Sub(due))
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			o := send(c, base, k, st.body(k, nil))
			o.from, o.latency = due, time.Since(due)
			o.done = time.Since(start)
			<-slots
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}(k, due)
	}
	wg.Wait()
	return window{outcomes: outs, wall: time.Since(start), late: late}
}

func merge(per [][]outcome) []outcome {
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	return all
}
