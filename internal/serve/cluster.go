package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
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
	draining atomic.Bool

	requests    []*metrics.Counter // routed per replica
	deadProbes  []*metrics.Counter // contacts that found the replica dead
	fallbacks   *metrics.Counter
	unavailable *metrics.Counter

	brkCfg chaos.BreakerConfig // shared by all replica breakers
}

// replica is one in-process Server plus its routing health state. The
// mutex makes the route decision (breaker admit + liveness check +
// outcome record) atomic against kill/recover.
type replica struct {
	id  int
	srv *Server

	mu     sync.Mutex
	killed bool
	brk    *chaos.Breaker
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
		w := cfg.Workers / n
		if w < 1 {
			w = 1
		}
		cfg.Workers = w
	}
	full := cfg.withDefaults()
	c := &Cluster{
		replicas:   make([]*replica, n),
		reg:        metrics.NewRegistry(),
		requests:   make([]*metrics.Counter, n),
		deadProbes: make([]*metrics.Counter, n),
		brkCfg: chaos.BreakerConfig{
			Threshold: full.BreakerThreshold,
			Cooldown:  int64(full.BreakerCooldown),
		},
	}
	c.fallbacks = c.reg.Counter("beaconserved_router_fallback_total")
	c.unavailable = c.reg.Counter("beaconserved_router_unavailable_total")
	for i := 0; i < n; i++ {
		c.replicas[i] = &replica{
			id:  i,
			srv: New(cfg),
			brk: chaos.NewBreaker(c.brkCfg),
		}
		c.requests[i] = c.reg.Counter(fmt.Sprintf(`beaconserved_replica_requests_total{replica="%d"}`, i))
		c.deadProbes[i] = c.reg.Counter(fmt.Sprintf(`beaconserved_replica_dead_probe_total{replica="%d"}`, i))
		for v := 0; v < vnodesPerReplica; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "replica-%d-vnode-%d", i, v)
			c.ring = append(c.ring, ringEntry{hash: h.Sum64(), id: i})
		}
	}
	sort.Slice(c.ring, func(a, b int) bool {
		if c.ring[a].hash != c.ring[b].hash {
			return c.ring[a].hash < c.ring[b].hash
		}
		return c.ring[a].id < c.ring[b].id
	})
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

// routeKey derives the placement key for a request. A simulation routes
// on its validated job — kind, dataset, nodes, batches and config
// digest — so every spelling of one simulation (defaults written out,
// platform names in any case) lands on the replica that memoizes it,
// and the deadline never moves a request off that replica. An
// experiment routes on its decoded request. A body that fails
// validation gets no key. The body is restored for the replica's own
// decoder.
func (c *Cluster) routeKey(r *http.Request) (uint64, bool) {
	if r.Method != http.MethodPost {
		return 0, false
	}
	if r.URL.Path != "/v1/simulate" && r.URL.Path != "/v1/experiment" {
		return 0, false
	}
	const bodyCap = 1 << 20 // matches the replicas' strict decoder limit
	body, err := io.ReadAll(io.LimitReader(r.Body, bodyCap+1))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil || len(body) > bodyCap {
		return 0, false
	}
	h := fnv.New64a()
	if r.URL.Path == "/v1/simulate" {
		var req SimRequest
		if decodeJSON(bytes.NewReader(body), &req) != nil {
			return 0, false
		}
		// Every replica validates against the same Config.
		job, err := c.replicas[0].srv.validate(&req)
		if err != nil {
			return 0, false
		}
		fmt.Fprintf(h, "sim|%d|%s|%d|%d|%d", job.kind, job.desc.Name, job.nodes, job.batches, exp.ConfigDigest(job.cfg))
	} else {
		var req ExpRequest
		if json.Unmarshal(body, &req) != nil {
			return 0, false
		}
		fmt.Fprintf(h, "exp|%s|%t|%d|%d", req.ID, req.Quick, req.Nodes, req.Batches)
	}
	return h.Sum64(), true
}

// candidates returns replica ids in ring order starting at the first
// vnode at or after key, deduplicated — the primary choice first, then
// the fallback sequence a dead primary falls through.
func (c *Cluster) candidates(key uint64) []int {
	n := len(c.replicas)
	out := make([]int, 0, n)
	seen := make([]bool, n)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= key })
	for i := 0; len(out) < n && i < len(c.ring); i++ {
		e := c.ring[(start+i)%len(c.ring)]
		if !seen[e.id] {
			seen[e.id] = true
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
		c.deadProbes[r.id].Inc()
		r.brk.Record(now, false)
		return false
	}
	r.brk.Record(now, true)
	return true
}

// ServeHTTP routes to the owning replica, falling through the ring past
// dead replicas. Router-level admin and observability endpoints are
// handled here; everything else reaches a replica's own handler stack.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		c.handleHealthz(w, r)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.reg.WriteText(w)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/v1/replicas":
		c.handleReplicaList(w, r)
		return
	}
	if id, action, ok := replicaAdminPath(r); ok {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
			return
		}
		if id < 0 || id >= len(c.replicas) {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no replica %d", id)})
			return
		}
		switch action {
		case "kill":
			c.Kill(id)
		case "recover":
			c.Recover(id)
		}
		writeJSON(w, http.StatusOK, map[string]any{"replica": id, "action": action})
		return
	}

	key, hasKey := c.routeKey(r)
	order := c.candidates(key)
	now := time.Now().UnixNano()
	for rank, id := range order {
		rep := c.replicas[id]
		if !c.admit(rep, now) {
			continue
		}
		if rank > 0 && hasKey {
			c.fallbacks.Inc()
			w.Header().Set("X-Replica-Fallback", "1")
		}
		w.Header().Set("X-Replica", strconv.Itoa(id))
		c.requests[id].Inc()
		rep.srv.ServeHTTP(w, r)
		return
	}
	c.unavailable.Inc()
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no live replica available"})
}

// replicaAdminPath parses /v1/replicas/{id}/{kill|recover}.
func replicaAdminPath(r *http.Request) (id int, action string, ok bool) {
	const prefix = "/v1/replicas/"
	p := r.URL.Path
	if len(p) <= len(prefix) || p[:len(prefix)] != prefix {
		return 0, "", false
	}
	rest := p[len(prefix):]
	slash := -1
	for i := range rest {
		if rest[i] == '/' {
			slash = i
			break
		}
	}
	if slash <= 0 {
		return 0, "", false
	}
	id, err := strconv.Atoi(rest[:slash])
	if err != nil {
		return 0, "", false
	}
	action = rest[slash+1:]
	if action != "kill" && action != "recover" {
		return 0, "", false
	}
	return id, action, true
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
			Requests: c.requests[i].Value(),
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
