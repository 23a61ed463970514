package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"advhunter/internal/core"
	"advhunter/internal/obs"
	"advhunter/internal/serve"
)

// PolicyAffinity names the cluster's routing policy, the policy label of
// advhunter_cluster_routed_total: queries route by fingerprint over a
// consistent-hash ring, so repeats of one query always land on the same
// replica and its truth cache keeps single-replica hit rates.
const PolicyAffinity = "affinity"

// Config tunes the cluster tier. The zero value runs two replicas.
type Config struct {
	// Replicas is the in-process replica count (default 2, minimum 1).
	Replicas int
	// Logger receives the cluster's structured records. nil selects
	// slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	return c
}

// Cluster is the multi-replica serving tier: an affinity router in front of N
// serve.Server instances, each with its own admission bound, engine replicas,
// tier stack, truth caches, and metrics registry (stamped replica="i" and merged
// onto one /metrics page). Build with New, expose with Handler, stop with
// Shutdown (which drains every replica).
type Cluster struct {
	replicas []*serve.Server
	ring     *Ring
	spread   atomic.Uint64 // round-robin cursor for requests without a fingerprint
	draining atomic.Bool   // set by Shutdown; /detect and /readyz answer 503
	shape    [3]int

	reg    *obs.Registry
	routed []*obs.Counter // per replica, pre-resolved
	logger *slog.Logger
	mux    *http.ServeMux

	rids atomic.Uint64 // cluster-generated request ids ("c" prefix)
}

// New assembles a cluster, calling build once per replica index to construct
// each serve.Server. The factory owns per-replica resource cloning (the
// measurer, the twin measurer): serve.New takes ownership of what it is
// given, so handing two replicas the same measurer is a data race. New
// stamps each replica's registry with its replica label; the factory must
// not have exposed the registry to a scrape before New returns.
func New(cfg Config, build func(replica int) *serve.Server) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		reg:    obs.NewRegistry(),
		logger: cfg.Logger,
	}
	if c.logger == nil {
		c.logger = slog.Default()
	}
	c.replicas = make([]*serve.Server, cfg.Replicas)
	for i := range c.replicas {
		c.replicas[i] = build(i)
		c.replicas[i].Registry().SetConstLabels("replica", strconv.Itoa(i))
	}
	// The router validates a body against one shape and hands the decoded
	// request to whichever replica it picks, so every replica must serve it.
	c.shape = c.replicas[0].Shape()
	for i, s := range c.replicas {
		if s.Shape() != c.shape {
			panic(fmt.Sprintf("cluster: replica %d serves shape %v, replica 0 %v", i, s.Shape(), c.shape))
		}
	}

	c.ring = NewRing(cfg.Replicas, DefaultVNodes)

	c.reg.Gauge("advhunter_cluster_replicas", "Cluster replica count.").With().Set(float64(cfg.Replicas))
	routedVec := c.reg.Counter("advhunter_cluster_routed_total",
		"Requests routed to each replica.", "policy", "replica")
	c.routed = make([]*obs.Counter, cfg.Replicas)
	for i := range c.routed {
		c.routed[i] = routedVec.With(PolicyAffinity, strconv.Itoa(i))
	}

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/detect", c.handleDetect)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/readyz", c.handleReadyz)
	// One scrape sees every layer: the cluster's own registry, each
	// replica's serve registry under its replica label (merged into one
	// family block per name), and the process-wide registry.
	c.mux.Handle("/metrics", obs.Handler(append(c.Registries(), obs.Default)...))
	c.mux.Handle("/debug/build", obs.BuildInfoHandler())
	// /debug/trace merges whatever replicas have tracing on; with tracing
	// off everywhere it serves an empty page.
	rings := make([]*obs.TraceRing, len(c.replicas))
	for i, s := range c.replicas {
		rings[i] = s.Traces()
	}
	c.mux.Handle("/debug/trace", obs.TraceHandler(rings...))
	return c
}

// Handler returns the cluster's HTTP handler.
func (c *Cluster) Handler() http.Handler { return c.mux }

// Replicas returns the live replica set (do not mutate).
func (c *Cluster) Replicas() []*serve.Server { return c.replicas }

// Registries returns the router's registry first, then each replica's
// (replica-labelled) registry: the set a fleet flight recorder samples, so
// family-level queries — and alert rules over them — see fleet totals.
func (c *Cluster) Registries() []*obs.Registry {
	regs := []*obs.Registry{c.reg}
	for _, s := range c.replicas {
		regs = append(regs, s.Registry())
	}
	return regs
}

// Shutdown drains the cluster: the router stops taking requests, then every
// replica drains concurrently. The first replica error (or the context's)
// is returned.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	errs := make([]error, len(c.replicas))
	var wg sync.WaitGroup
	for i, s := range c.replicas {
		wg.Add(1)
		go func(i int, s *serve.Server) {
			defer wg.Done()
			errs[i] = s.Shutdown(ctx)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// handleDetect routes and delegates one detection request. The chosen
// replica does all the real work — admission, validation, the verdict, the
// response bytes — so a cluster of one replica answers byte-identically to
// that replica served directly.
func (c *Cluster) handleDetect(w http.ResponseWriter, r *http.Request) {
	// One request id across the hop: a well-formed caller-supplied
	// X-Request-ID passes through untouched; otherwise the cluster mints one
	// ("c" prefix) and stamps it on the delegated request, so the replica
	// adopts it — the routed log below, the replica's request log, and the
	// replica's trace record all carry the same id. The cluster's own
	// rejections below echo it too.
	id := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(id) {
		id = "c" + strconv.FormatUint(c.rids.Add(1), 10)
		r.Header.Set("X-Request-ID", id)
	}
	w.Header().Set("X-Request-ID", id)
	rctx := obs.WithRequestID(r.Context(), id)
	if c.draining.Load() {
		c.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	// Routing needs the query fingerprint, the same one the replica's truth
	// cache uses, so the router reads and decodes the body here and hands
	// the decoded request to the replica, which does not decode it again:
	// one read and one decode per request. Raw body bytes cannot serve as
	// the key — two replays of one query differ in their index field. A body
	// that does not decode is forwarded as raw bytes, so the replica answers
	// the same 400 a directly served replica would.
	var req *serve.Request
	fp, fpOK := uint64(0), false
	if r.Method == http.MethodPost {
		body, err := serve.ReadBody(w, r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "request body too large or unreadable")
			return
		}
		defer body.Release() // after the replica has read any forwarded bytes
		if req, err = serve.DecodeRequest(body.Bytes(), c.shape); err == nil {
			fp, fpOK = core.Fingerprint(req.Tensor()), true
		} else {
			r.Body = io.NopCloser(bytes.NewReader(body.Bytes()))
			r.ContentLength = int64(len(body.Bytes()))
		}
	}
	target := c.route(fp, fpOK)
	c.routed[target].Inc()
	c.logger.DebugContext(rctx, "routed", slog.Int("replica", target))
	c.replicas[target].ServeDecoded(w, r, req)
}

// route picks the replica for one admitted request: the ring owner of a
// decodable query's fingerprint. A request without one (a malformed or
// non-POST body) goes round-robin, and the chosen replica renders the same
// error response a single server would.
func (c *Cluster) route(fp uint64, fpOK bool) int {
	if !fpOK {
		return int((c.spread.Add(1) - 1) % uint64(len(c.replicas)))
	}
	return c.ring.Lookup(fp)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (c *Cluster) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if c.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// writeError mirrors serve's JSON error shape so clients see one error
// contract regardless of which layer rejected them.
func (c *Cluster) writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
