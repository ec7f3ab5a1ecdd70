package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/engine"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sched"
	"mikpoly/internal/serve"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
	"mikpoly/internal/workload"
)

// span is one timed call into a layer, recorded by this package around the
// layer's public function.
type span struct {
	Name   string  `json:"name"`
	Req    int     `json:"req"`    // request index, -1 for shared work (waves)
	Parent int     `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Tasks  int     `json:"tasks,omitempty"`
	Cycles float64 `json:"cycles,omitempty"`
	Miss   bool    `json:"miss,omitempty"`     // core.plan: the call planned online
	Stall  int64   `json:"stall_ns,omitempty"` // graphrt.execute: plan-stall wall
	FLOPs  float64 `json:"flops,omitempty"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory. The direct replay is sequential, so the
// enclosing span is simply the innermost open one. A disabled recorder
// costs one branch per call.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), cur: -1} }

func (r *recorder) begin(name string, req int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: r.cur, Start: time.Since(r.epoch).Nanoseconds()})
	r.cur = len(r.spans) - 1
	return r.cur
}

// end closes span id and returns it for attributes (nil when disabled).
func (r *recorder) end(id int) *span {
	if id < 0 {
		return nil
	}
	s := &r.spans[id]
	s.End = time.Since(r.epoch).Nanoseconds()
	r.cur = s.Parent
	return s
}

// direct is the serving stack without HTTP: the compiler, health registry,
// graph runtime and generation scheduler built the way serve.SetCompiler
// builds them, driven request by request the way the handlers drive them.
type direct struct {
	h   hw.Hardware
	cfg serve.Config
	c   *core.Compiler
	reg *health.Registry
	rt  *graphrt.Runtime
	sc  *sched.Scheduler
	rec *recorder
	req int // request being replayed, for span attribution

	clock   float64 // scheduler clock after the last replay, in cycles
	cycles  map[int]float64
	skipped map[int]bool
	digests map[int]string
	errs    map[int]error
	leaked  int

	costErr samples             // EstimatedCost / sim cycles − 1 per online plan
	graphs  map[string]nn.Graph // graphs the scheduler built, by name
	peakMem int64               // largest graph working set
	spill   float64             // memory-planner spill bytes, summed
	nGraphs int

	// Counters at the start of the measured replay.
	wavesBefore int64
	plansBefore struct{ n, pruned int }
}

func newDirect(lib *tune.Library, rec *recorder) *direct {
	o := newObs()
	c := core.NewCompilerFromLibrary(lib, compilerOptions(o)...)
	cfg := serverConfig(o)
	def := serve.DefaultConfig()
	cfg.PlanTimeout, cfg.MaxSimTasks, cfg.RequestTimeout = def.PlanTimeout, def.MaxSimTasks, def.RequestTimeout
	d := &direct{
		h: c.Hardware(), cfg: cfg, c: c, rec: rec, req: -1,
		reg:     health.NewRegistry(c.Hardware().NumPEs, health.Config{}),
		cycles:  map[int]float64{},
		skipped: map[int]bool{},
		digests: map[int]string{},
		errs:    map[int]error{},
		graphs:  map[string]nn.Graph{},
	}
	d.rt = graphrt.New(c, graphrt.Config{PlanAhead: cfg.PlanAhead, PlanTimeout: cfg.PlanTimeout, Obs: o, Health: d.reg, Fuse: cfg.Fuse})
	d.rt.SetSimulator(d.simulate)
	d.sc = sched.New(sched.ExecutorFunc(d.execGraph), sched.Config{HW: d.h})
	return d
}

// simulate is the graph runtime's simulator seam as the server sets it
// without fault injection: sim.Run on the stage's hardware.
func (d *direct) simulate(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
	id := d.rec.begin("sim.run", d.req)
	res := sim.Run(h, tasks)
	if s := d.rec.end(id); s != nil {
		s.Tasks, s.Cycles = len(tasks), res.Cycles
	}
	return res
}

// execGraph is the scheduler's executor as serve wires it: one graph
// through the graph runtime.
func (d *direct) execGraph(ctx context.Context, g nn.Graph, _ string) (float64, error) {
	id := d.rec.begin("graphrt.execute", -1)
	rep, err := d.rt.Execute(ctx, g)
	if s := d.rec.end(id); s != nil {
		d.noteGraph(s, rep)
		d.graphs[g.Name] = g
	}
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}

func (d *direct) noteGraph(s *span, rep graphrt.Report) {
	s.Stall, s.Cycles = rep.StallWall.Nanoseconds(), rep.Cycles
	d.nGraphs++
	d.spill += rep.Mem.SpillBytes
	if rep.Mem.PeakBytes > d.peakMem {
		d.peakMem = rep.Mem.PeakBytes
	}
}

// replay runs requests in order; /generate requests go through one
// scheduler replay whose arrivals continue the previous replay's clock.
func (d *direct) replay(reqs []*request) {
	if len(reqs) > 0 && reqs[0].path == "/generate" {
		d.replayGen(reqs)
		return
	}
	for _, r := range reqs {
		d.req = r.idx
		switch r.path {
		case "/plan", "/execute":
			d.op(r)
		case "/model":
			d.model(r)
		}
	}
	d.req = -1
}

// op mirrors handlePlan and handleExecute: plan under the plan deadline,
// lower on the health view's hardware, simulate, and for /execute run the
// numeric engine on the same operands.
func (d *direct) op(r *request) {
	root := d.rec.begin("req", r.idx)
	defer d.rec.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.PlanTimeout)
	before, _ := d.c.PlanStats()
	id := d.rec.begin("core.plan", r.idx)
	prog, degraded, err := d.c.PlanOrFallback(ctx, r.shape)
	s := d.rec.end(id)
	cancel()
	if err != nil {
		d.errs[r.idx] = err
		return
	}
	after, _ := d.c.PlanStats()
	miss := after != before
	if s != nil {
		s.Miss = miss
	}
	if r.path == "/plan" && prog.NumTasks() > d.cfg.MaxSimTasks {
		d.skipped[r.idx] = true
	} else {
		v := d.reg.View()
		h := v.Apply(d.h)
		id = d.rec.begin("poly.lower", r.idx)
		tasks := prog.Tasks(h)
		if s := d.rec.end(id); s != nil {
			s.Tasks = len(tasks)
		}
		id = d.rec.begin("sim.run", r.idx)
		res := sim.Run(h, tasks)
		if s := d.rec.end(id); s != nil {
			s.Tasks, s.Cycles = len(tasks), res.Cycles
			if miss && !degraded && res.Cycles > 0 {
				d.costErr = append(d.costErr, prog.EstimatedCost/res.Cycles-1)
			}
		}
		d.reg.ObserveResult(v, res)
		d.cycles[r.idx] = res.Cycles
	}
	if r.path == "/execute" {
		a := tensor.RandomMatrix(r.shape.M, r.shape.K, r.seedA)
		b := tensor.RandomMatrix(r.shape.K, r.shape.N, r.seedB)
		id = d.rec.begin("engine.execute", r.idx)
		_, err := engine.Execute(prog, a, b)
		if s := d.rec.end(id); s != nil {
			s.FLOPs = r.shape.FLOPs()
		}
		if err != nil {
			d.errs[r.idx] = err
		}
	}
}

// model mirrors handleModel: build the graph, then one runtime execution.
func (d *direct) model(r *request) {
	g, err := nn.BuildModel(r.model, r.dims)
	if err != nil {
		d.errs[r.idx] = err
		return
	}
	root := d.rec.begin("req", r.idx)
	defer d.rec.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.RequestTimeout)
	defer cancel()
	id := d.rec.begin("graphrt.execute", r.idx)
	rep, err := d.rt.Execute(ctx, g)
	if s := d.rec.end(id); s != nil {
		d.noteGraph(s, rep)
	}
	if err != nil {
		d.errs[r.idx] = err
		return
	}
	d.cycles[r.idx] = rep.Cycles
}

// replayGen runs /generate requests through one scheduler replay. The
// scheduler's clock is virtual, so arrivals are the trace's own, shifted
// to start where the previous replay's clock stopped.
func (d *direct) replayGen(reqs []*request) {
	trace := make([]workload.TraceRequest, len(reqs))
	base := reqs[0].gen.ArrivalCycle
	for i, r := range reqs {
		trace[i] = *r.gen
		trace[i].ArrivalCycle = r.gen.ArrivalCycle - base + d.clock
	}
	id := d.rec.begin("sched.replay", -1)
	rep, results, err := d.sc.Replay(context.Background(), trace)
	d.rec.end(id)
	if err != nil {
		for _, r := range reqs {
			d.errs[r.idx] = err
		}
		return
	}
	d.clock = rep.ElapsedSec * d.h.ClockHz
	d.leaked = rep.LeakedPages
	for _, res := range results {
		r := reqs[res.ID]
		if res.Err != nil {
			d.errs[r.idx] = res.Err
			continue
		}
		d.digests[r.idx] = fmt.Sprintf("%016x", res.Digest)
	}
}

// mismatch compares the replay with the served responses: device cycles
// (or, for /generate, the digest) must be equal bit for bit.
func (d *direct) mismatch(recs []record) error {
	for _, rec := range recs {
		if !rec.ok() {
			continue
		}
		i := rec.idx
		if err := d.errs[i]; err != nil {
			return fmt.Errorf("%s #%d: replay failed: %v", rec.path, i, err)
		}
		switch rec.path {
		case "/generate":
			if d.digests[i] != rec.digest {
				return fmt.Errorf("/generate #%d: replay digest %s, served %s", i, d.digests[i], rec.digest)
			}
		default:
			if rec.skipped != d.skipped[i] {
				return fmt.Errorf("%s #%d: replay sim_skipped %v, served %v", rec.path, i, d.skipped[i], rec.skipped)
			}
			if math.Float64bits(rec.cycles) != math.Float64bits(d.cycles[i]) {
				return fmt.Errorf("%s #%d: replay cycles %v, served sim_cycles %v", rec.path, i, d.cycles[i], rec.cycles)
			}
		}
	}
	return nil
}

// probe lowers and simulates the programs of every distinct GEMM shape the
// replayed graphs contained, outside the timed replay: graphrt lowers and
// simulates inside Execute, so the per-task lowering cost and the cost
// model's error are taken here, on the same cached programs.
func (d *direct) probe(gs []nn.Graph) (lowerNs, tasks float64, errs samples) {
	seen := map[tensor.GemmShape]bool{}
	for _, g := range gs {
		for s := range g.GemmShapes() {
			if seen[s] {
				continue
			}
			seen[s] = true
			prog, degraded, err := d.c.PlanOrFallback(context.Background(), s)
			if err != nil || degraded {
				continue
			}
			t0 := time.Now()
			ts := prog.Tasks(d.h)
			lowerNs += float64(time.Since(t0).Nanoseconds())
			tasks += float64(len(ts))
			if res := sim.Run(d.h, ts); res.Cycles > 0 {
				errs = append(errs, prog.EstimatedCost/res.Cycles-1)
			}
		}
	}
	return lowerNs, tasks, errs
}

// requestsByIdx rebuilds the records' requests in index order, the order
// the server received them in.
func requestsByIdx(st stream, recs []record) []*request {
	out := make([]*request, 0, len(recs))
	for _, r := range recs {
		out = append(out, st.request(r.idx))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// perLayer replays the run's requests twice on fresh stacks, untraced and
// traced, checks the traced replay against the served responses, and
// derives the per-layer metrics. It returns the traced replay, and valid is
// false when the replay's device results differ from the server's.
func perLayer(o options, h *httpRun, lib *tune.Library) (ms []metric, d *direct, valid bool, err error) {
	served := h.timed()
	warm, measured := requestsByIdx(h.st, h.warm), requestsByIdx(h.st, served)

	timed := func(rec *recorder) (*direct, time.Duration) {
		d := newDirect(lib, rec)
		on := rec.on
		rec.on = false
		d.replay(warm)
		rec.on = on
		d.wavesBefore = d.sc.Stats().Waves
		n, ps := d.c.PlanStats()
		d.plansBefore.n, d.plansBefore.pruned = n, ps.PrunedAnchors
		runtime.GC()
		t0 := time.Now()
		d.replay(measured)
		return d, time.Since(t0)
	}
	_, plainWall := timed(&recorder{cur: -1})
	rec := newRecorder()
	rec.on = true
	d, tracedWall := timed(rec)
	if err := writeSpans(o.spans, rec.spans); err != nil {
		return nil, nil, false, err
	}
	valid = true
	if err := d.mismatch(served); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traced replay mismatch:", err)
		valid = false
	}
	var gs []nn.Graph
	for _, g := range d.graphs {
		gs = append(gs, g)
	}
	for _, r := range measured {
		if r.path == "/model" {
			if g, err := nn.BuildModel(r.model, r.dims); err == nil {
				gs = append(gs, g)
			}
		}
	}
	probeNs, probeTasks, probeErr := d.probe(gs)
	return layerMetrics(h, d, rec.spans, probeNs, probeTasks, probeErr, plainWall, tracedWall, len(measured)), d, valid, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
