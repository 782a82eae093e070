package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
)

// SimRequest is the JSON body of POST /v1/simulate. Zero-valued fields
// take the same defaults as the beaconsim CLI, so an empty override set
// here and a bare CLI run produce byte-identical results.
type SimRequest struct {
	Platform  string `json:"platform"`
	Dataset   string `json:"dataset"`
	Nodes     int    `json:"nodes,omitempty"`      // materialized graph nodes (default 10000)
	Batches   int    `json:"batches,omitempty"`    // mini-batches (default 6)
	BatchSize int    `json:"batch_size,omitempty"` // targets per batch (default: paper's 64)
	Seed      uint64 `json:"seed,omitempty"`

	ReadLatencyNS int64 `json:"read_latency_ns,omitempty"` // flash read latency override
	Channels      int   `json:"channels,omitempty"`
	Dies          int   `json:"dies,omitempty"` // dies per channel
	Cores         int   `json:"cores,omitempty"`

	Fault *FaultRequest `json:"fault,omitempty"`

	// TimeoutMS is this request's deadline; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// FaultRequest switches on the NAND reliability model with optional
// overrides, mirroring beaconsim's -fault* flags.
type FaultRequest struct {
	BaseRBER        float64 `json:"base_rber,omitempty"`
	InitialPECycles int     `json:"initial_pe_cycles,omitempty"`
	DeadDies        []int   `json:"dead_dies,omitempty"`
	DeadChannels    []int   `json:"dead_channels,omitempty"`
}

// simTimelinePoints matches beaconsim's resource-timeline resolution so
// served results stay byte-identical to the CLI's.
const simTimelinePoints = 1024

// simJob is a validated SimRequest, ready to run. decodeSim makes its
// key once; routing, the memo lookup and the runs all read it.
type simJob struct {
	key     exp.SimKey
	cfg     config.Config
	timeout time.Duration
}

// badRequestError marks validation failures that map to 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badf(format string, a ...any) error {
	return badRequestError{fmt.Sprintf(format, a...)}
}

// decodeJSON strictly decodes one JSON object from r into v: unknown
// fields, malformed bodies, and trailing garbage are all 400s — a typo
// in an override must never silently simulate the default instead. It
// is a variable only so a test can count decodes.
var decodeJSON = func(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badf("bad request body: %v", err)
	}
	if dec.More() {
		return badf("bad request body: trailing data after the JSON object")
	}
	return nil
}

// digestHook, when set, is called for each config digest decodeSim
// makes, so a test can count them. A replaceable digest function would
// do the same but move every validated job to the heap.
var digestHook func()

// decodeSim is /v1/simulate's front half: a strict decode of body, then
// the request resolved against the server's limits into a job and its
// key. The key's node count is the requested one, because
// dataset.Materialize yields exactly that many nodes. The job is
// returned by value, so a memo hit keeps it on its stack; the miss path
// copies it to the heap for the runs it starts.
func (s *Server) decodeSim(body io.Reader) (simJob, error) {
	var req SimRequest
	if err := decodeJSON(body, &req); err != nil {
		return simJob{}, err
	}
	if req.Platform == "" {
		return simJob{}, badf("missing required field \"platform\"")
	}
	kind, err := platform.ByName(req.Platform)
	if err != nil {
		return simJob{}, badf("%v", err)
	}
	if req.Dataset == "" {
		return simJob{}, badf("missing required field \"dataset\"")
	}
	desc, err := dataset.ByName(req.Dataset)
	if err != nil {
		return simJob{}, badf("%v", err)
	}
	job := simJob{key: exp.SimKey{Kind: kind, Dataset: desc.Name, Nodes: 10_000, Batches: 6, Timeline: simTimelinePoints}}
	if req.Nodes != 0 {
		if req.Nodes < 0 || req.Nodes > s.cfg.MaxNodes {
			return simJob{}, badf("nodes %d outside [1, %d]", req.Nodes, s.cfg.MaxNodes)
		}
		job.key.Nodes = req.Nodes
	}
	if req.Batches != 0 {
		if req.Batches < 0 || req.Batches > s.cfg.MaxBatches {
			return simJob{}, badf("batches %d outside [1, %d]", req.Batches, s.cfg.MaxBatches)
		}
		job.key.Batches = req.Batches
	}
	if req.BatchSize < 0 || req.ReadLatencyNS < 0 || req.Channels < 0 || req.Dies < 0 || req.Cores < 0 {
		return simJob{}, badf("overrides must be non-negative")
	}

	job.cfg = config.Default()
	cfg := &job.cfg
	if req.BatchSize > 0 {
		cfg.GNN.BatchSize = req.BatchSize
	}
	if req.ReadLatencyNS > 0 {
		cfg.Flash.ReadLatency = sim.Time(req.ReadLatencyNS)
	}
	if req.Channels > 0 {
		cfg.Flash.Channels = req.Channels
	}
	if req.Dies > 0 {
		cfg.Flash.DiesPerChannel = req.Dies
	}
	if req.Cores > 0 {
		cfg.Firmware.Cores = req.Cores
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if f := req.Fault; f != nil {
		cfg.Fault.Enabled = true
		if f.BaseRBER > 0 {
			cfg.Fault.BaseRBER = f.BaseRBER
		}
		if f.InitialPECycles > 0 {
			cfg.Fault.InitialPECycles = f.InitialPECycles
		}
		cfg.Fault.DeadDies = f.DeadDies
		cfg.Fault.DeadChannels = f.DeadChannels
	}
	if err := cfg.Validate(); err != nil {
		return simJob{}, badf("%v", err)
	}
	job.key.Digest = exp.ConfigDigest(cfg)
	if digestHook != nil {
		digestHook()
	}
	if job.timeout, err = s.requestTimeout(req.TimeoutMS); err != nil {
		return simJob{}, err
	}
	return job, nil
}

// expJob is a validated ExpRequest, ready to run.
type expJob struct {
	exp     core.Experiment
	nodes   int // 0: the experiment's default scale
	batches int // 0: the experiment's default
	quick   bool
	timeout time.Duration
}

// decodeExp is decodeSim for /v1/experiment.
func (s *Server) decodeExp(body io.Reader) (*expJob, error) {
	var req ExpRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	e, err := core.ByID(req.ID)
	if err != nil {
		return nil, badf("%v", err)
	}
	if req.Nodes < 0 || req.Nodes > s.cfg.MaxNodes {
		return nil, badf("nodes %d outside [0, %d]", req.Nodes, s.cfg.MaxNodes)
	}
	if req.Batches < 0 || req.Batches > s.cfg.MaxBatches {
		return nil, badf("batches %d outside [0, %d]", req.Batches, s.cfg.MaxBatches)
	}
	job := &expJob{exp: e, nodes: req.Nodes, batches: req.Batches, quick: req.Quick}
	if job.timeout, err = s.requestTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	return job, nil
}

// requestTimeout resolves a request's timeout_ms: 0 takes the server
// default and anything above MaxTimeout is capped. The cap applies in
// milliseconds, before converting, because a Duration wraps past about
// 9.2e12 ms.
func (s *Server) requestTimeout(ms int64) (time.Duration, error) {
	switch {
	case ms < 0:
		return 0, badf("timeout_ms must be non-negative")
	case ms == 0:
		return s.cfg.DefaultTimeout, nil
	case ms > s.cfg.MaxTimeout.Milliseconds():
		return s.cfg.MaxTimeout, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// SimResponse is the JSON reply of POST /v1/simulate. The handler writes
// it by hand, splicing the result's stored encoding after the other
// members (envelope.go); the bytes are exactly what json.Encoder, with
// HTML escaping off, writes for this type.
type SimResponse struct {
	Platform string `json:"platform"`
	Dataset  string `json:"dataset"`
	Nodes    int    `json:"nodes"`
	Batches  int    `json:"batches"`
	// Cached reports whether the result was served from the LRU memo
	// without re-simulating (also surfaced as the X-Cache header).
	Cached bool `json:"cached"`
	// Degraded marks a stale last-known-good result served because the
	// family's circuit breaker was open (also X-Degraded/Warning
	// headers). Omitted on fresh results, keeping healthy responses
	// byte-identical to a build without degraded mode.
	Degraded bool `json:"degraded,omitempty"`
	// WallMS is handler wall time — near zero on cache hits.
	WallMS float64 `json:"wall_ms"`
	// Result is the full measurement set, identical to what the
	// equivalent beaconsim run computes.
	Result *platform.Result `json:"result"`
}

// ExpRequest is the JSON body of POST /v1/experiment: reproduce one
// paper table/figure (see GET /v1/experiments for ids).
type ExpRequest struct {
	ID        string `json:"id"`
	Quick     bool   `json:"quick,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	Batches   int    `json:"batches,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExpResponse carries the experiment's rendered report.
type ExpResponse struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
	Output string  `json:"output"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}
