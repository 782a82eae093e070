package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/exp"
	"beacongnn/internal/graph"
	"beacongnn/internal/platform"
	"beacongnn/internal/serve"
	"beacongnn/internal/sim"
)

// The traced run is separate from the timed runs. It replays a
// workload's ops one layer call at a time from the benchmark's own code,
// with a span around every call, and derives the per-layer metrics from
// the spans. A replayed child call runs right after its parent request
// returns, not inside it, so a parent's self time is its duration minus
// the durations of the children replayed for it.

// span is one timed call. Ops number from 0; op -1 is set-up.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write stores them once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call runs fn inside a span and returns the span's id.
func (t *tracer) call(name string, parent, op int, fn func()) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans)
	fn()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	return id
}

// millis returns the durations of the op spans named name, in ms.
func (t *tracer) millis(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 {
			out = append(out, float64(s.dur().Nanoseconds())/1e6)
		}
	}
	return out
}

// selfMillis returns, per op span named name, its duration minus its
// children's, in ms.
func (t *tracer) selfMillis(name string) []float64 {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 {
			out = append(out, float64((s.dur()-child[s.ID]).Nanoseconds())/1e6)
		}
	}
	return out
}

func (t *tracer) write(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// spanCounter is a sim.Tracer that counts spans per resource: exact
// counts of the simulated requests each resource served.
type spanCounter map[string]uint64

func (c spanCounter) ServerSpan(resource string, _ int, _, _, _ sim.Time) { c[resource]++ }

// layerSet is a traced run's per-layer metrics, every declared name
// present from the start at 0.
type layerSet map[string]metric

func newLayerSet() layerSet {
	m := layerSet{}
	for _, s := range perLayer() {
		m[s.name] = metric{0, s.unit}
	}
	return m
}

func (m layerSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m[name] = metric{v, cur.Unit}
}

// setRuntime records the Go runtime's per-op cost over an untraced phase.
func (m layerSet) setRuntime(t timing) {
	n := float64(len(t.lat))
	m.set("runtime.gc_cycles_per_op", float64(t.gcs)/n)
	m.set("runtime.alloc_mb_per_op", float64(t.bytes)/1e6/n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opConfig is the config the daemon derives from op: the defaults plus
// the two fields the generators set.
func opConfig(op simOp) config.Config {
	cfg := config.Default()
	if op.ReadLatencyNS != 0 {
		cfg.Flash.ReadLatency = sim.Time(op.ReadLatencyNS)
	}
	if op.Seed != 0 {
		cfg.Seed = op.Seed
	}
	return cfg
}

// mixInstances materializes the three mix instances exactly as the
// daemon does for a request without a seed.
func mixInstances() (map[string]*dataset.Instance, error) {
	cfg := config.Default()
	out := make(map[string]*dataset.Instance)
	for _, name := range mixDatasets {
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		if out[name], err = dataset.Materialize(d, mixNodes, cfg.Flash.PageSize, cfg.Seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simtimeSentinel runs the serving mix at the default config directly on
// the platform layer, each simulation twice: untraced and timed, then
// with a spanCounter attached, which must not change its result. It
// records the simulated-time results, the exact span counts, and the
// host cost of the event loop per counted span. The simulated work
// depends on neither the seed nor the workload, so a host-only change
// must leave every simtime.* and sim.spans.* value identical.
func simtimeSentinel(m layerSet, insts map[string]*dataset.Instance) error {
	phase := make(map[string]float64)
	var total float64
	var reads, bus uint64
	var runNS time.Duration
	counts := spanCounter{}
	for _, k := range platform.All() {
		for _, d := range mixDatasets {
			var res [2]*platform.Result
			for i := range res {
				sys, err := platform.NewSystem(k, config.Default(), insts[d], simTimeline)
				if err != nil {
					return err
				}
				start := time.Now()
				if i == 1 {
					sys.SetTracer(counts)
				}
				if res[i], err = sys.Run(mixBatches); err != nil {
					return fmt.Errorf("sentinel %v/%s: %w", k, d, err)
				}
				if i == 0 {
					runNS += time.Since(start)
				}
			}
			a, errA := json.Marshal(res[0])
			b, errB := json.Marshal(res[1])
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				return fmt.Errorf("sentinel %v/%s: attaching a tracer changed the result", k, d)
			}
			m.set("simtime.elapsed_us."+k.String()+"."+d, float64(res[0].Elapsed)/1e3)
			reads += res[0].FlashReads
			bus += res[0].BusBytes
			if k == platform.BG2 {
				for _, p := range res[0].Phases {
					phase[string(p.Phase)] += float64(p.Time)
					total += float64(p.Time)
				}
			}
		}
	}
	m.set("simtime.flash_reads", float64(reads))
	m.set("simtime.bus_mb", float64(bus)/1e6)
	for _, p := range sharePhases {
		m.set("simtime.share."+p, ratio(phase[p], total))
	}
	var spans uint64
	for _, r := range simResources {
		spans += counts[r]
		m.set("sim.spans."+r, float64(counts[r]))
	}
	m.set("platform.host_ns_per_span", ratio(float64(runNS.Nanoseconds()), float64(spans)))
	return nil
}

// simTimeline is the daemon's timeline resolution (serve's
// simTimelinePoints, the same as beaconsim's), which a direct replay
// must use to reproduce a served result.
const simTimeline = 1024

// encodeResponse encodes a SimResponse the way the daemon writes one.
func encodeResponse(op simOp, res *platform.Result, cached bool) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(serve.SimResponse{
		Platform: res.Platform, Dataset: res.Dataset,
		Nodes: op.Nodes, Batches: op.Batches, Cached: cached, Result: res,
	})
	return b.Bytes(), err
}

// serveReplay is one serve-* workload's traced run.
type serveReplay struct {
	c        *client
	cache    string  // the X-Cache outcome every reply must carry
	untraced []simOp // ops timed without spans: the overhead base
	traced   []simOp // ops replayed with spans
	insts    map[string]*dataset.Instance
	// children replays the layer calls behind traced op i, under the
	// request span parent, and checks them against the served result.
	children func(tr *tracer, parent, i int, op simOp, served []byte) error

	pages  int
	dgSize directgraph.Stats // summed TotalBytes/RawBytes of replayed builds
}

// replayDirect replays op on the platform layer (NewSystem, then Run)
// and checks that the daemon served the byte-identical result.
func replayDirect(tr *tracer, parent, i int, op simOp, inst *dataset.Instance, served []byte) error {
	kind, err := platform.ByName(op.Platform)
	if err != nil {
		return err
	}
	var sys *platform.System
	tr.call("platform.new_system", parent, i, func() {
		sys, err = platform.NewSystem(kind, opConfig(op), inst, simTimeline)
	})
	if err != nil {
		return err
	}
	var res *platform.Result
	tr.call("platform.run", parent, i, func() { res, err = sys.Run(op.Batches) })
	if err != nil {
		return err
	}
	return replayEncode(tr, parent, i, op, res, false, served)
}

// replayEncode replays the daemon's response encoding of res and checks
// its result member against the served bytes.
func replayEncode(tr *tracer, parent, i int, op simOp, res *platform.Result, cached bool, served []byte) error {
	var enc []byte
	var err error
	tr.call("serve.encode", parent, i, func() { enc, err = encodeResponse(op, res, cached) })
	if err != nil {
		return err
	}
	if !bytes.Equal(resultField(enc), served) {
		return fmt.Errorf("%s: served result is not byte-identical to the direct replay", op)
	}
	return nil
}

func (r *serveReplay) run(name string, seed uint64) (*report, error) {
	m := newLayerSet()
	un := wireFor(r.untraced, r.cache == "hit")
	base := timePhase(len(r.untraced), func(i int) error {
		return r.c.post(un.bodies[i]).check(r.cache, un.prefixes[i])
	}, nil)
	m.setRuntime(base)

	eng := r.c.srv.Engine()
	runs0, hits0 := eng.Stats()
	ev0 := eng.Evictions()
	tw := wireFor(r.traced, r.cache == "hit")
	tr := newTracer()
	failed := base.failed
	var kb []float64
	hits := 0
	for i, op := range r.traced {
		var w *recorder
		req := tr.call("serve.request", 0, i, func() { w = r.c.post(tw.bodies[i]) })
		err := w.check(r.cache, tw.prefixes[i])
		if err == nil {
			kb = append(kb, float64(w.body.Len())/1e3)
			if w.h.Get("X-Cache") == "hit" {
				hits++
			}
			err = r.children(tr, req, i, op, bytes.Clone(resultField(w.body.Bytes())))
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced op %d: %v\n", i, err)
		}
	}
	runs1, hits1 := eng.Stats()

	n := float64(len(r.traced))
	reqMS := tr.millis("serve.request")
	m.set("serve.request_ms", median(reqMS))
	m.set("serve.self_ms", median(tr.selfMillis("serve.request")))
	m.set("serve.encode_ms", median(tr.millis("serve.encode")))
	m.set("serve.response_kb", median(kb))
	m.set("serve.hit_ratio", float64(hits)/n)
	m.set("exp.runs", float64(runs1-runs0))
	m.set("exp.memo_hits", float64(hits1-hits0))
	m.set("exp.memo_hit_ratio", ratio(float64(hits1-hits0), float64(runs1-runs0+hits1-hits0)))
	m.set("exp.evictions", float64(eng.Evictions()-ev0))
	if r.cache == "hit" && hits1-hits0 != uint64(len(r.traced)) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: %d memo hits for %d resident-key requests\n", hits1-hits0, len(r.traced))
	}

	m.set("platform.run_ms", median(tr.millis("platform.run")))
	m.set("platform.new_system_ms", median(tr.millis("platform.new_system")))
	m.set("graph.generate_ms", median(tr.millis("graph.generate")))
	m.set("directgraph.build_ms", median(tr.millis("directgraph.build")))
	m.set("directgraph.pages", ratio(float64(r.pages), float64(len(tr.millis("directgraph.build")))))
	m.set("directgraph.inflation", r.dgSize.InflationRatio())
	m.set("trace.overhead_ratio", ratio(median(reqMS), median(millis(base.lat))))

	insts := r.insts
	if insts == nil {
		var err error
		if insts, err = mixInstances(); err != nil {
			return nil, err
		}
	}
	if err := simtimeSentinel(m, insts); err != nil {
		return nil, err
	}
	if err := tr.write(name, seed); err != nil {
		return nil, err
	}
	return &report{
		Correct:   failed == 0,
		Attempted: len(r.untraced) + len(r.traced),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// halves splits a traced run's ops: the first half runs untraced, as the
// base the tracing overhead is measured against.
func halves(ops []simOp) (untraced, traced []simOp) {
	h := len(ops) / 2
	return ops[:h], ops[h:]
}

func traceCold(seed uint64, seconds int) (*report, error) {
	ops, err := coldOps(seed, blocksFor(seconds, coldOpsPerSec, len(combos()), 2))
	if err != nil {
		return nil, err
	}
	c, err := coldSetup()
	if err != nil {
		return nil, err
	}
	insts, err := mixInstances()
	if err != nil {
		return nil, err
	}
	r := &serveReplay{c: c, cache: "miss", insts: insts}
	r.untraced, r.traced = halves(ops)
	r.children = func(tr *tracer, parent, i int, op simOp, served []byte) error {
		return replayDirect(tr, parent, i, op, insts[op.Dataset], served)
	}
	return r.run("serve-cold", seed)
}

func traceHot(seed uint64, seconds int) (*report, error) {
	keys, seq, err := hotKeys(seed, blocksFor(seconds, hotOpsPerSec, len(combos()), 2))
	if err != nil {
		return nil, err
	}
	st, err := hotSetup(keys)()
	if err != nil {
		return nil, err
	}
	insts, err := mixInstances()
	if err != nil {
		return nil, err
	}
	results := make([]*platform.Result, len(keys))
	for i := range keys {
		if err := json.Unmarshal(st.results[i], &results[i]); err != nil {
			return nil, fmt.Errorf("decode resident result %s: %w", keys[i], err)
		}
	}
	ops := make([]simOp, len(seq))
	for i, k := range seq {
		ops[i] = keys[k]
	}
	eng := st.c.srv.Engine()
	r := &serveReplay{c: st.c, cache: "hit", insts: insts}
	r.untraced, r.traced = halves(ops)
	h := len(r.untraced)
	r.children = func(tr *tracer, parent, i int, op simOp, served []byte) error {
		kind, err := platform.ByName(op.Platform)
		if err != nil {
			return err
		}
		key := exp.Key(kind, opConfig(op), insts[op.Dataset], op.Batches, simTimeline)
		var hit bool
		tr.call("exp.lookup", parent, i, func() { hit = eng.Cached(key) })
		if !hit {
			return fmt.Errorf("%s: replayed key is not resident in the daemon's memo", op)
		}
		return replayEncode(tr, parent, i, op, results[seq[h+i]], true, served)
	}
	return r.run("serve-hot", seed)
}

// genSpec is the graph dataset.Materialize generates for d at nodes.
func genSpec(d dataset.Desc, nodes int, seed uint64) graph.GenSpec {
	return graph.GenSpec{
		Nodes:      nodes,
		AvgDegree:  d.AvgDegree,
		MaxDegree:  min(d.MaxDegree, nodes-1),
		FeatureDim: d.FeatureDim,
		PowerLaw:   d.PowerLaw,
		Seed:       seed,
	}
}

func traceChurn(seed uint64, seconds int) (*report, error) {
	fill, ops := churnOps(seed, blocksFor(seconds, churnOpsPerSec, len(mixDatasets), 2))
	c, err := churnSetup(fill)()
	if err != nil {
		return nil, err
	}
	r := &serveReplay{c: c, cache: "miss"}
	r.untraced, r.traced = halves(ops)
	r.children = func(tr *tracer, parent, i int, op simOp, served []byte) error {
		d, err := dataset.ByName(op.Dataset)
		if err != nil {
			return err
		}
		cfg := opConfig(op)
		var g *graph.Graph
		tr.call("graph.generate", parent, i, func() { g, err = graph.Generate(genSpec(d, op.Nodes, cfg.Seed)) })
		if err != nil {
			return err
		}
		var b *directgraph.Build
		tr.call("directgraph.build", parent, i, func() {
			b, err = directgraph.BuildGraph(directgraph.Layout{PageSize: cfg.Flash.PageSize, FeatureDim: d.FeatureDim},
				g, &directgraph.SeqAllocator{})
		})
		if err != nil {
			return err
		}
		r.pages += b.Stats.PrimaryPages + b.Stats.SecondaryPages
		r.dgSize.TotalBytes += b.Stats.TotalBytes
		r.dgSize.RawBytes += b.Stats.RawBytes
		return replayDirect(tr, parent, i, op, &dataset.Instance{Desc: d, Graph: g, Build: b}, served)
	}
	return r.run("serve-churn", seed)
}

// oneByOne runs core.AllExperiments() one at a time on a fresh quick
// engine, each under a span when tr is set, joined under RunAll's
// headers.
func oneByOne(tr *tracer, parent int) ([]byte, *exp.Engine, error) {
	eng := exp.New(runtime.NumCPU())
	o := quickOptions(eng)
	var b bytes.Buffer
	for _, e := range core.AllExperiments() {
		b.WriteString(header(e))
		var err error
		run := func() { err = e.Run(o, &b) }
		if tr != nil {
			tr.call("core."+e.ID, parent, 0, run)
		} else {
			run()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return b.Bytes(), eng, nil
}

// traceEval checks the three renderings of the evaluation against each
// other (RunAll's paper set, a fan-out pass, the one-by-one runs) and
// times each experiment on its own.
func traceEval(seed uint64, _ int) (*report, error) {
	ref, err := runAllRef()
	if err != nil {
		return nil, err
	}
	fan, err := fanOutPass()
	if err != nil {
		return nil, err
	}
	var checks []error
	checks = append(checks, checkPaperSections(fan, ref))

	m := newLayerSet()
	var baseOut []byte
	base := timePhase(1, func(int) error {
		baseOut, _, err = oneByOne(nil, 0)
		return err
	}, nil)
	m.setRuntime(base)

	tr := newTracer()
	var out []byte
	var eng *exp.Engine
	passID := len(tr.spans) + 1
	tr.call("core.pass", 0, 0, func() { out, eng, err = oneByOne(tr, passID) })
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out, fan) || !bytes.Equal(baseOut, fan) {
		checks = append(checks, fmt.Errorf("one-by-one output differs from the fan-out pass"))
	}
	var crit float64
	for _, e := range core.AllExperiments() {
		v := median(tr.millis("core." + e.ID))
		m.set("core."+e.ID+"_ms", v)
		crit = max(crit, v)
	}
	m.set("core.critical_path_ms", crit)
	runs, hits := eng.Stats()
	m.set("exp.runs", float64(runs))
	m.set("exp.memo_hits", float64(hits))
	m.set("exp.memo_hit_ratio", ratio(float64(hits), float64(runs+hits)))
	m.set("exp.evictions", float64(eng.Evictions()))
	m.set("trace.overhead_ratio", ratio(float64(tr.spans[passID-1].dur()), float64(base.lat[0])))

	insts, err := mixInstances()
	if err != nil {
		return nil, err
	}
	if err := simtimeSentinel(m, insts); err != nil {
		return nil, err
	}
	if err := tr.write("eval", seed); err != nil {
		return nil, err
	}
	failed := base.failed
	for _, c := range checks {
		if c != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: eval: %v\n", c)
		}
	}
	return &report{Correct: failed == 0, Attempted: 1 + len(base.lat), Failed: failed, Metrics: m}, nil
}
