package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sync"
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

// maxBody is the largest request body the server reads; a larger one
// is a 400, never a truncated decode.
const maxBody = 1 << 20

// bodyBuf holds one request body in memory while it is decoded. The
// limited reader sits beside the buffer, so once the pool is warm,
// reading a body allocates nothing.
type bodyBuf struct {
	bytes.Buffer
	lim io.LimitedReader
}

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads r whole into a pooled buffer, which the caller hands
// back to bodyBufs. It reads one byte past maxBody, so an over-limit
// body is rejected rather than cut short.
func readBody(r io.Reader) (*bodyBuf, error) {
	b := bodyBufs.Get().(*bodyBuf)
	b.Reset()
	b.lim = io.LimitedReader{R: r, N: maxBody + 1}
	_, err := b.ReadFrom(&b.lim)
	b.lim.R = nil
	if err == nil && b.Len() > maxBody {
		err = fmt.Errorf("larger than %d bytes", maxBody)
	}
	if err != nil {
		bodyBufs.Put(b)
		return nil, badf("bad request body: %v", err)
	}
	return b, nil
}

// decodeJSON strictly decodes the JSON object in body into v: unknown
// fields, malformed bodies, and anything but white space after the
// object are all 400s — a typo in an override must never silently
// simulate the default instead. It is a variable only so a test can
// count decodes.
var decodeJSON = func(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badf("bad request body: %v", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return badf("bad request body: trailing data after the JSON object")
	}
	return nil
}

// digestHook, when set, is called for each config digest parseSim
// makes, so a test can count them. A replaceable digest function would
// do the same but move every validated job to the heap.
var digestHook func()

// decodeSim is /v1/simulate's front half: the body resolved into a job
// and its key. A body seen before is answered from the server's body
// index, keyed by the SHA-256 of its bytes; any other is read by
// parseSim and, if accepted, indexed. parseSim's result depends only on
// the bytes and on s.cfg's limits and timeouts, which are fixed for the
// server's lifetime, so an indexed job is exactly what a fresh decode
// would make; its hits share the config's fault lists, which nothing
// writes. Rejected bodies are never indexed: each 400 is decoded
// afresh. The job is returned by value, so a memo hit keeps it on its
// stack; the miss path copies it to the heap for the runs it starts.
func (s *Server) decodeSim(body io.Reader) (simJob, error) {
	b, err := readBody(body)
	if err != nil {
		return simJob{}, err
	}
	defer bodyBufs.Put(b)
	sum := sha256.Sum256(b.Bytes())
	if job, ok := s.bodies.Get(sum); ok {
		s.reg.Counter("beaconserved_body_index_hits_total").Inc()
		return job, nil
	}
	s.reg.Counter("beaconserved_body_index_misses_total").Inc()
	job, err := s.parseSim(b.Bytes())
	if err == nil {
		s.bodies.Put(sum, job)
	}
	return job, err
}

// parseSim is a strict decode of body, then the request resolved
// against the server's limits into a job and its key. The key's node
// count is the requested one, because dataset.Materialize yields
// exactly that many nodes.
func (s *Server) parseSim(body []byte) (simJob, error) {
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

// decodeExp is decodeSim for /v1/experiment, without a body index: an
// experiment run is heavy, and its decode is noise beside it.
func (s *Server) decodeExp(body io.Reader) (*expJob, error) {
	b, err := readBody(body)
	if err != nil {
		return nil, err
	}
	var req ExpRequest
	err = decodeJSON(b.Bytes(), &req)
	bodyBufs.Put(b)
	if err != nil {
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
