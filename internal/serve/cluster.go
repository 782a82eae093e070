package serve

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beacongnn/internal/chaos"
	"beacongnn/internal/exp"
	"beacongnn/internal/metrics"
)

// Cluster runs N in-process beaconserved replicas behind consistent-hash
// request routing: the same simulation request always lands on the same
// replica, so each replica's memo LRU stays hot for its slice of the key
// space (cache-aware placement). A replica marked dead is skipped by a
// per-replica circuit breaker — once the breaker opens, the dead replica
// is contacted at most once per half-open interval, never hammered by a
// probe storm — with traffic falling through the hash ring to the next
// live replica.
type Cluster struct {
	replicas []*replica
	ring     []ringEntry
	reg      *metrics.Registry
	mux      *http.ServeMux
	draining atomic.Bool

	fallbacks   *metrics.Counter
	unavailable *metrics.Counter

	brkCfg chaos.BreakerConfig // shared by all replica breakers
}

// replica is one in-process Server plus its routing health state. The
// mutex makes the route decision (breaker admit + liveness check +
// outcome record) atomic against kill/recover.
type replica struct {
	srv        *Server
	requests   *metrics.Counter // requests routed here
	deadProbes *metrics.Counter // contacts that found it dead

	mu     sync.Mutex
	killed bool
	brk    *chaos.Breaker
}

// registry is a metrics registry seen through one fixed label: a
// cluster's replicas register into the router's registry, each series
// labeled replica="i", so the router's /metrics shows them all. A
// standalone server's label is empty and its names pass unchanged.
type registry struct {
	*metrics.Registry
	label string

	mu    sync.Mutex
	names map[string]string // name as registered → labeled name
}

func newRegistry(reg *metrics.Registry, label string) *registry {
	return &registry{Registry: reg, label: label, names: make(map[string]string)}
}

// name merges the label into name's label set, once per name.
func (r *registry) name(name string) string {
	if r.label == "" {
		return name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.names[name]
	if !ok {
		if strings.HasSuffix(name, "}") {
			l = name[:len(name)-1] + "," + r.label + "}"
		} else {
			l = name + "{" + r.label + "}"
		}
		r.names[name] = l
	}
	return l
}

func (r *registry) Counter(name string) *metrics.Counter { return r.Registry.Counter(r.name(name)) }
func (r *registry) Gauge(name string) *metrics.Gauge     { return r.Registry.Gauge(r.name(name)) }
func (r *registry) Summary(name string) *metrics.Summary { return r.Registry.Summary(r.name(name)) }
func (r *registry) GaugeFunc(name string, fn func() float64) {
	r.Registry.GaugeFunc(r.name(name), fn)
}

type ringEntry struct {
	hash uint64
	id   int
}

// vnodesPerReplica is the consistent-hash ring density. 64 virtual
// nodes per replica keeps the key-space split within a few percent of
// even while adding/removing a replica only remaps its own arcs.
const vnodesPerReplica = 64

// NewCluster builds n replicas sharing one Config. An explicit worker
// budget is divided across replicas (floor 1); 0 keeps the per-replica
// default (all cores) — acceptable for simulation workloads where
// replicas are rarely busy simultaneously.
func NewCluster(n int, cfg Config) *Cluster {
	if n < 1 {
		n = 1
	}
	if cfg.Workers > 0 {
		cfg.Workers = max(1, cfg.Workers/n)
	}
	full := cfg.withDefaults()
	c := &Cluster{
		replicas: make([]*replica, n),
		reg:      metrics.NewRegistry(),
		mux:      http.NewServeMux(),
		brkCfg: chaos.BreakerConfig{
			Threshold: full.BreakerThreshold,
			Cooldown:  int64(full.BreakerCooldown),
		},
	}
	c.fallbacks = c.reg.Counter("beaconserved_router_fallback_total")
	c.unavailable = c.reg.Counter("beaconserved_router_unavailable_total")
	for i := 0; i < n; i++ {
		c.replicas[i] = &replica{
			srv:        newServer(cfg, c.reg, fmt.Sprintf(`replica="%d"`, i)),
			requests:   c.reg.Counter(fmt.Sprintf(`beaconserved_replica_requests_total{replica="%d"}`, i)),
			deadProbes: c.reg.Counter(fmt.Sprintf(`beaconserved_replica_dead_probe_total{replica="%d"}`, i)),
			brk:        chaos.NewBreaker(c.brkCfg),
		}
		for v := 0; v < vnodesPerReplica; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "replica-%d-vnode-%d", i, v)
			c.ring = append(c.ring, ringEntry{hash: h.Sum64(), id: i})
		}
	}
	slices.SortFunc(c.ring, func(a, b ringEntry) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.id, b.id))
	})
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.reg.WriteText(w)
	})
	c.mux.HandleFunc("GET /v1/replicas", c.handleReplicaList)
	c.mux.HandleFunc("/v1/replicas/{id}/{action}", c.handleReplicaAdmin)
	c.mux.HandleFunc("POST /v1/simulate", c.routeSimulate)
	c.mux.HandleFunc("POST /v1/experiment", c.routeExperiment)
	c.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { c.forward(w, r, 0, false) })
	return c
}

// BeginDrain flips every replica (and the router's /healthz) into
// lame-duck mode.
func (c *Cluster) BeginDrain() {
	c.draining.Store(true)
	for _, r := range c.replicas {
		r.srv.BeginDrain()
	}
}

// CancelInflight cancels stragglers on every replica and returns the
// total cancelled.
func (c *Cluster) CancelInflight() int {
	n := 0
	for _, r := range c.replicas {
		n += r.srv.CancelInflight()
	}
	return n
}

// Stats aggregates engine stats across replicas.
func (c *Cluster) Stats() (runs, hits uint64) {
	for _, r := range c.replicas {
		rr, hh := r.srv.Engine().Stats()
		runs += rr
		hits += hh
	}
	return runs, hits
}

// Kill marks replica i dead (admin drill; no process actually exits —
// the replica simply refuses to serve, like a crashed backend behind a
// proxy).
func (c *Cluster) Kill(i int) {
	r := c.replicas[i]
	r.mu.Lock()
	r.killed = true
	r.mu.Unlock()
}

// Recover brings replica i back. The breaker is replaced so recovery is
// observed on the next request instead of after a full open dwell.
func (c *Cluster) Recover(i int) {
	r := c.replicas[i]
	r.mu.Lock()
	r.killed = false
	r.brk = chaos.NewBreaker(c.brkCfg)
	r.mu.Unlock()
}

// routeSimulate runs /v1/simulate's front half once, in the router:
// a body that fails it gets the 400 a single Server would write, and a
// valid job is placed by its key, so every spelling of one simulation
// (defaults written out, platform names in any case, any deadline)
// lands on the replica that memoizes it. The replica gets the job with
// the request and does not decode the body again.
func (c *Cluster) routeSimulate(w http.ResponseWriter, r *http.Request) {
	// Every replica validates against the same Config.
	job, err := c.replicas[0].srv.decodeSim(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	c.forward(w, r.WithContext(context.WithValue(r.Context(), routedJob{}, &job)), simRingKey(job.key), true)
}

// routeExperiment is routeSimulate for /v1/experiment: an experiment is
// placed by its validated id, scale and quick flag.
func (c *Cluster) routeExperiment(w http.ResponseWriter, r *http.Request) {
	job, err := c.replicas[0].srv.decodeExp(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	key := ringHash(fmt.Appendf(nil, "exp|%s|%t|%d|%d", job.exp.ID, job.quick, job.nodes, job.batches))
	c.forward(w, r.WithContext(context.WithValue(r.Context(), routedJob{}, job)), key, true)
}

// simRingKey is a simulation's place on the ring: the FNV-64a hash of
// "sim|kind|dataset|nodes|batches|digest" from its key. The key's
// timeline is the same for every served simulation.
func simRingKey(k exp.SimKey) uint64 {
	var buf [64]byte
	b := append(buf[:0], "sim|"...)
	b = strconv.AppendInt(b, int64(k.Kind), 10)
	b = append(append(append(b, '|'), k.Dataset...), '|')
	b = strconv.AppendInt(b, int64(k.Nodes), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.Batches), 10)
	b = append(b, '|')
	return ringHash(strconv.AppendUint(b, k.Digest, 10))
}

func ringHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// candidates returns replica ids in ring order starting at the first
// vnode at or after key, deduplicated — the primary choice first, then
// the fallback sequence a dead primary falls through.
func (c *Cluster) candidates(key uint64) []int {
	n := len(c.replicas)
	out := make([]int, 0, n)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= key })
	for i := 0; len(out) < n && i < len(c.ring); i++ {
		if e := c.ring[(start+i)%len(c.ring)]; !slices.Contains(out, e.id) {
			out = append(out, e.id)
		}
	}
	return out
}

// admit asks replica r to take a request. The breaker gates contact:
// closed admits freely, open admits nothing (zero contact with the dead
// backend), half-open admits exactly one probe per cooldown.
func (c *Cluster) admit(r *replica, now int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.brk.Allow(now) {
		return false
	}
	if r.killed {
		r.deadProbes.Inc()
		r.brk.Record(now, false)
		return false
	}
	r.brk.Record(now, true)
	return true
}

// ServeHTTP serves the router's own admin and observability endpoints
// and routes everything else to a replica's full handler stack.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// forward serves r on the first replica in ring order from key that
// admits it, falling through dead replicas. placed marks a request
// placed by its own key, whose fallback is counted and marked.
func (c *Cluster) forward(w http.ResponseWriter, r *http.Request, key uint64, placed bool) {
	now := time.Now().UnixNano()
	for rank, id := range c.candidates(key) {
		rep := c.replicas[id]
		if !c.admit(rep, now) {
			continue
		}
		if rank > 0 && placed {
			c.fallbacks.Inc()
			w.Header().Set("X-Replica-Fallback", "1")
		}
		w.Header().Set("X-Replica", strconv.Itoa(id))
		rep.requests.Inc()
		rep.srv.ServeHTTP(w, r)
		return
	}
	c.unavailable.Inc()
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no live replica available"})
}

// handleReplicaAdmin serves POST /v1/replicas/{id}/{kill|recover}. It
// checks the method itself so a 405 is JSON like every other error.
func (c *Cluster) handleReplicaAdmin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(c.replicas) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no replica " + r.PathValue("id")})
		return
	}
	action := r.PathValue("action")
	switch action {
	case "kill":
		c.Kill(id)
	case "recover":
		c.Recover(id)
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no replica action " + strconv.Quote(action)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"replica": id, "action": action})
}

type replicaStatus struct {
	ID       int    `json:"id"`
	Killed   bool   `json:"killed"`
	Breaker  string `json:"breaker"`
	Requests uint64 `json:"requests"`
}

func (c *Cluster) handleReplicaList(w http.ResponseWriter, _ *http.Request) {
	out := make([]replicaStatus, len(c.replicas))
	for i, r := range c.replicas {
		r.mu.Lock()
		out[i] = replicaStatus{
			ID:       i,
			Killed:   r.killed,
			Breaker:  r.brk.State().String(),
			Requests: r.requests.Value(),
		}
		r.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"replicas": out})
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := 0
	for _, r := range c.replicas {
		r.mu.Lock()
		if !r.killed {
			live++
		}
		r.mu.Unlock()
	}
	status := http.StatusOK
	state := "ok"
	switch {
	case c.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case live == 0:
		status, state = http.StatusServiceUnavailable, "no live replicas"
	case live < len(c.replicas):
		state = "degraded"
	}
	writeJSON(w, status, map[string]any{
		"status": state, "live": live, "replicas": len(c.replicas),
	})
}
