package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/serve"
	"mikpoly/internal/tensor"
	"mikpoly/internal/workload"
)

// mix is splitmix64: every random draw of the benchmark is a pure function
// of (seed, stream, index), so a request can be rebuilt from its index.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// draw is the i-th 64-bit value of a seeded stream.
func draw(seed, i uint64) uint64 { return mix(seed ^ mix(i)) }

// unit is the i-th uniform value in [0, 1) of a seeded stream.
func unit(seed, i uint64) float64 { return float64(draw(seed, i)>>11) / (1 << 53) }

// logUniform draws an integer in [lo, hi] uniformly in log space.
func logUniform(u float64, lo, hi int) int {
	v := int(math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi)+1)-math.Log(float64(lo)))))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// zipf samples ranks in [0, n) with P(r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	t := 0.0
	for i := range cdf {
		t += 1 / math.Pow(float64(i+1), s)
		cdf[i] = t
	}
	for i := range cdf {
		cdf[i] /= t
	}
	return zipf{cdf}
}

func (z zipf) rank(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// request is one generated request: its wire form plus the inputs the
// verifier and the direct replay need.
type request struct {
	idx    int
	path   string
	tenant string
	body   []byte

	shape        tensor.GemmShape // /plan, /execute
	seedA, seedB uint64           // /execute

	model string // /model
	dims  nn.ModelDims

	gen *workload.TraceRequest // /generate
}

// reqKey identifies requests whose device results must be identical.
type reqKey struct {
	path  string
	shape tensor.GemmShape // /plan, /execute
	model string           // /model
	dims  nn.ModelDims
	gen   int // /generate: the trace index
}

func (r *request) key() reqKey {
	switch r.path {
	case "/model":
		return reqKey{path: r.path, model: r.model, dims: r.dims}
	case "/generate":
		return reqKey{path: r.path, gen: r.idx}
	}
	return reqKey{path: r.path, shape: r.shape}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of ints and strings always marshal
	}
	return b
}

// stream is one workload: a deterministic request sequence, the open-loop
// schedule over it, and the response checks.
type stream interface {
	// request builds the i-th request of the seeded sequence, or nil past
	// its end.
	request(i int) *request
	// schedule returns the due offsets of requests first, first+1, …
	// arriving within d at the workload's open-loop rate.
	schedule(first int, d time.Duration) []time.Duration
	// warmup is the number of requests sent, untimed, before measuring.
	warmup() int
	// deviceMs returns a verified response's device-clock time.
	deviceMs(rec *record) (float64, bool)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"ops-coldshape", "model-dynseq", "llm-generate"}

func newStream(name string, seed uint64) (stream, error) {
	switch name {
	case "ops-coldshape":
		return newOpsStream(seed), nil
	case "model-dynseq":
		return newModelStream(seed), nil
	case "llm-generate":
		return newGenStream(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

var a100 = hw.A100()

func cyclesMs(c float64) float64 { return a100.CyclesToSeconds(c) * 1e3 }

// ---------------------------------------------------------------- ops

// Open-loop rates, pinned well below the closed-loop capacity measured on
// the reference host (NOTES.md).
const (
	opsRate   = 1400.0
	modelRate = 80.0
	genRate   = 8.0
)

// opsStream is /plan traffic over a GEMM shape pool larger than the
// program cache, with a small share of /execute requests.
type opsStream struct {
	seed  uint64
	pool  []tensor.GemmShape
	z     zipf
	exec  []tensor.GemmShape
	execZ zipf
}

// poolSeed fixes the workloads' input pools. opsPoolExtra is the number of
// TransformerGEMM draws added to the Table 3 suite; opsZipfS skews the pool so about half the requests miss the
// 1,024-entry program cache.
const (
	poolSeed     = 0x5eed
	opsPoolExtra = 2400
	opsZipfS     = 0.55
	execEvery    = 16
	execShapes   = 96
	execMaxDim   = 160
)

func newOpsStream(seed uint64) *opsStream {
	lim := serve.DefaultConfig().MaxPlanElems
	seen := map[tensor.GemmShape]bool{}
	var pool []tensor.GemmShape
	add := func(cs []workload.Case) {
		for _, c := range cs {
			s := c.Shape
			if seen[s] || int64(s.M)*int64(s.N)*int64(s.K) > lim {
				continue
			}
			seen[s] = true
			pool = append(pool, s)
		}
	}
	add(workload.Table3Suite())
	// TransformerGEMM is a fixed sequence whose first 800 draws are already
	// in Table 3.
	add(workload.TransformerGEMM(800 + opsPoolExtra)[800:])
	// The pool, its popularity order and the /execute shapes are fixed; the
	// seed draws the requests from them. A seeded pool would make each seed
	// a different workload rather than a different sample of one.
	perm := make([]tensor.GemmShape, len(pool))
	for i, j := range permutation(poolSeed, len(pool)) {
		perm[i] = pool[j]
	}
	exec := make([]tensor.GemmShape, execShapes)
	for i := range exec {
		exec[i] = tensor.GemmShape{
			M: logUniform(unit(poolSeed, uint64(3*i)), 1, execMaxDim),
			N: logUniform(unit(poolSeed, uint64(3*i+1)), 1, execMaxDim),
			K: logUniform(unit(poolSeed, uint64(3*i+2)), 1, execMaxDim),
		}
	}
	return &opsStream{seed: seed, pool: perm, z: newZipf(len(perm), opsZipfS),
		exec: exec, execZ: newZipf(len(exec), 1.0)}
}

// permutation is a seeded Fisher–Yates shuffle of [0, n).
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(draw(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (o *opsStream) request(i int) *request {
	if draw(o.seed^0x16, uint64(i))%execEvery == 0 {
		k := o.execZ.rank(unit(o.seed^0xe5, uint64(i)))
		s := o.exec[k]
		r := &request{idx: i, path: "/execute", shape: s, seedA: uint64(2*k + 11), seedB: uint64(2*k + 12)}
		r.body = mustJSON(map[string]any{"m": s.M, "n": s.N, "k": s.K, "seed_a": r.seedA, "seed_b": r.seedB})
		return r
	}
	s := o.pool[o.z.rank(unit(o.seed^0x9a, uint64(i)))]
	return &request{idx: i, path: "/plan", shape: s,
		body: mustJSON(map[string]int{"m": s.M, "n": s.N, "k": s.K})}
}

func (o *opsStream) schedule(_ int, d time.Duration) []time.Duration {
	return poissonSchedule(o.seed^0xa11, opsRate, d)
}

func (o *opsStream) warmup() int { return 3000 }

func (o *opsStream) deviceMs(rec *record) (float64, bool) {
	return cyclesMs(rec.cycles), !rec.skipped
}

// ---------------------------------------------------------------- model

// modelStream is /model traffic over the paper's eight models plus
// llama2-prefill. Each model's dimension pool is the paper's own sweep for
// it, in a fixed popularity order from which the seed draws by Zipf, so
// dimensions repeat.
type modelStream struct {
	seed  uint64
	pools map[string][]nn.ModelDims
	zs    map[string]zipf
}

var modelNames = []string{
	"bert-base", "distilbert", "roberta-base", "albert-xlarge",
	"alexnet", "googlenet", "resnet18", "vgg11",
	"llama2-prefill",
}

// modelZipfS is the skew of the dimension draws: the default skew of the
// repository's trace generator (workload.TraceConfig.ZipfS).
const modelZipfS = 1.2

// modelBatches is the batch sweep of the paper's Llama2 experiment
// (Fig. 11). It is used for every model, so batch ∈ [1, 8]. The CNN
// experiment (Fig. 9) also runs batches up to 128, whose requests cost
// about ten times the host time of batch 8 at the same resolution; a few
// such draws would decide a run's capacity (NOTES.md).
var modelBatches = nn.LlamaBatchSizes()

func isCNN(m string) bool {
	switch m {
	case "alexnet", "googlenet", "resnet18", "vgg11":
		return true
	}
	return false
}

// modelDims is the paper's dimension sweep for model m: the sentence
// lengths of Fig. 8 for the language models, the resolutions of Fig. 9 for
// the CNNs and the input lengths of Fig. 11 for llama2-prefill, each
// crossed with modelBatches.
func modelDims(m string) []nn.ModelDims {
	var out []nn.ModelDims
	for _, b := range modelBatches {
		switch {
		case isCNN(m):
			for _, r := range nn.CNNResolutions() {
				out = append(out, nn.ModelDims{Batch: b, Resolution: r})
			}
		case m == "llama2-prefill":
			for _, q := range nn.LlamaSeqLengths() {
				out = append(out, nn.ModelDims{Batch: b, Seq: q})
			}
		default:
			for _, q := range nn.SequenceLengths() {
				out = append(out, nn.ModelDims{Batch: b, Seq: q})
			}
		}
	}
	return out
}

func newModelStream(seed uint64) *modelStream {
	ms := &modelStream{seed: seed, pools: map[string][]nn.ModelDims{}, zs: map[string]zipf{}}
	for mi, m := range modelNames {
		dims := modelDims(m)
		perm := make([]nn.ModelDims, len(dims))
		for i, j := range permutation(poolSeed^uint64(mi+1), len(dims)) {
			perm[i] = dims[j]
		}
		ms.pools[m] = perm
		ms.zs[m] = newZipf(len(perm), modelZipfS)
	}
	return ms
}

func (m *modelStream) request(i int) *request {
	name := modelNames[draw(m.seed^0x30, uint64(i))%uint64(len(modelNames))]
	d := m.pools[name][m.zs[name].rank(unit(m.seed^0x31, uint64(i)))]
	body := map[string]any{"model": name, "batch": d.Batch}
	if isCNN(name) {
		body["resolution"] = d.Resolution
	} else {
		body["seq"] = d.Seq
	}
	return &request{idx: i, path: "/model", model: name, dims: d, body: mustJSON(body)}
}

func (m *modelStream) schedule(_ int, d time.Duration) []time.Duration {
	return poissonSchedule(m.seed^0xa12, modelRate, d)
}

func (m *modelStream) warmup() int { return 120 }

func (m *modelStream) deviceMs(rec *record) (float64, bool) {
	return cyclesMs(rec.cycles), true
}

// ---------------------------------------------------------------- generate

// genStream is /generate traffic from workload.GenerateTrace; the trace's
// Poisson arrivals are the open-loop schedule.
type genStream struct{ trace []workload.TraceRequest }

const genTraceLen = 4096

func newGenStream(seed uint64) *genStream {
	return &genStream{trace: workload.GenerateTrace(workload.TraceConfig{
		Seed:           seed,
		Requests:       genTraceLen,
		Tenants:        4,
		ArrivalsPerSec: genRate,
		ClockHz:        a100.ClockHz,
		PromptMin:      64,
		PromptMax:      768,
		SharedFrac:     0.6,
		DecodeMin:      8,
		DecodeMax:      32,
		FanoutEvery:    6,
	})}
}

func (g *genStream) request(i int) *request {
	if i >= len(g.trace) {
		return nil
	}
	t := &g.trace[i]
	return &request{idx: i, path: "/generate", tenant: t.Tenant, gen: t, body: mustJSON(map[string]any{
		"prompt_len":  t.PromptLen,
		"prompt_seed": t.PromptSeed,
		"group":       t.Group,
		"prefix_len":  t.PrefixLen,
		"steps":       t.DecodeTokens,
		"priority":    t.Priority,
		"fanout":      t.Fanout,
	})}
}

func (g *genStream) schedule(first int, d time.Duration) []time.Duration {
	if first >= len(g.trace) {
		return nil
	}
	base := g.trace[first].ArrivalCycle
	var out []time.Duration
	for _, t := range g.trace[first:] {
		at := time.Duration((t.ArrivalCycle - base) / a100.ClockHz * float64(time.Second))
		if at >= d {
			break
		}
		out = append(out, at)
	}
	return out
}

func (g *genStream) warmup() int { return 24 }

func (g *genStream) deviceMs(rec *record) (float64, bool) { return rec.ttftMs, true }

// ---------------------------------------------------------------- responses

// reply holds the fields the checks read from any endpoint's 200 body.
type reply struct {
	Tasks        int       `json:"tasks"`         // /plan
	SimSkipped   bool      `json:"sim_skipped"`   // /plan
	SimCycles    float64   `json:"sim_cycles"`    // /plan, /execute, /model
	Checksum     float64   `json:"checksum"`      // /execute
	Sample       []float32 `json:"sample"`        // /execute
	Ops          int       `json:"ops"`           // /model
	FaultedTasks int       `json:"faulted_tasks"` // /execute, /model
	DecodeTokens int       `json:"decode_tokens"` // /generate
	TTFTMs       float64   `json:"ttft_ms"`       // /generate
	Digest       string    `json:"digest"`        // /generate
	SLOGood      bool      `json:"slo_good"`      // /generate
}

// ---------------------------------------------------------------- verify

// verifier checks every 200 response as it arrives; a mismatch becomes the
// record's err so it counts in failed_frac. cycles and digests remember the
// first answer per key: a later answer for the same inputs must match it
// bit for bit. It is shared by the sending goroutines: mu guards the maps,
// and references are built outside it.
type verifier struct {
	mu      sync.Mutex
	cycles  map[reqKey]float64
	digests map[reqKey]string
	refs    map[execKey]*execRef
	ops     map[reqKey]int
}

type execKey struct {
	shape        tensor.GemmShape
	seedA, seedB uint64
}

type execRef struct {
	checksum float64
	absSum   float64
	sample   [4]float32
}

func newVerifier() *verifier {
	return &verifier{cycles: map[reqKey]float64{}, digests: map[reqKey]string{},
		refs: map[execKey]*execRef{}, ops: map[reqKey]int{}}
}

// check verifies the 200 reply to req and copies the fields the run keeps
// into rec.
func (v *verifier) check(req *request, r *reply, rec *record) {
	rec.cycles, rec.skipped, rec.ttftMs, rec.sloGood, rec.digest = r.SimCycles, r.SimSkipped, r.TTFTMs, r.SLOGood, r.Digest
	if err := v.verify(req, r); err != nil {
		rec.err = fmt.Errorf("verify %s %+v: %w", req.path, req.key(), err)
	}
}

func (v *verifier) verify(req *request, r *reply) error {
	switch req.path {
	case "/plan":
		if r.Tasks <= 0 {
			return fmt.Errorf("program has %d tasks", r.Tasks)
		}
		if !r.SimSkipped && !(r.SimCycles > 0) {
			return fmt.Errorf("sim_cycles %v", r.SimCycles)
		}
		return v.sameCycles(req.key(), r.SimCycles)
	case "/execute":
		if err := v.checkExec(req, r); err != nil {
			return err
		}
		return v.sameCycles(req.key(), r.SimCycles)
	case "/model":
		v.mu.Lock()
		want, ok := v.ops[req.key()]
		v.mu.Unlock()
		if !ok {
			g, err := nn.BuildModel(req.model, req.dims)
			if err != nil {
				return err
			}
			want = len(g.Ops)
			v.mu.Lock()
			v.ops[req.key()] = want
			v.mu.Unlock()
		}
		if r.Ops != want {
			return fmt.Errorf("ops %d, nn.BuildModel has %d", r.Ops, want)
		}
		if r.FaultedTasks != 0 || !(r.SimCycles > 0) {
			return fmt.Errorf("faulted_tasks %d sim_cycles %v", r.FaultedTasks, r.SimCycles)
		}
		return v.sameCycles(req.key(), r.SimCycles)
	case "/generate":
		fan := req.gen.Fanout
		if fan < 1 {
			fan = 1
		}
		if want := req.gen.DecodeTokens * fan; r.DecodeTokens != want {
			return fmt.Errorf("decode_tokens %d, want steps×fanout = %d", r.DecodeTokens, want)
		}
		if r.Digest == "" {
			return fmt.Errorf("empty digest")
		}
		v.mu.Lock()
		defer v.mu.Unlock()
		if first, ok := v.digests[req.key()]; ok && first != r.Digest {
			return fmt.Errorf("digest %s, first answer was %s", r.Digest, first)
		}
		v.digests[req.key()] = r.Digest
		return nil
	}
	return fmt.Errorf("no check for %s", req.path)
}

func (v *verifier) sameCycles(key reqKey, c float64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if first, ok := v.cycles[key]; ok && math.Float64bits(first) != math.Float64bits(c) {
		return fmt.Errorf("sim_cycles %v, first answer for the same inputs was %v", c, first)
	}
	v.cycles[key] = c
	return nil
}

// checkExec compares /execute's digest against tensor.Gemm on the same
// tensor.RandomMatrix operands. The planner may split K, so float32 sums
// are reordered; the tolerance is scaled by the magnitude of the sum.
func (v *verifier) checkExec(req *request, r *reply) error {
	k := execKey{req.shape, req.seedA, req.seedB}
	v.mu.Lock()
	ref, ok := v.refs[k]
	v.mu.Unlock()
	if !ok {
		s := req.shape
		c := tensor.Gemm(tensor.RandomMatrix(s.M, s.K, req.seedA), tensor.RandomMatrix(s.K, s.N, req.seedB))
		ref = &execRef{sample: [4]float32{c.At(0, 0), c.At(0, c.Cols-1), c.At(c.Rows-1, 0), c.At(c.Rows-1, c.Cols-1)}}
		for _, x := range c.Data {
			ref.checksum += float64(x)
			ref.absSum += math.Abs(float64(x))
		}
		v.mu.Lock()
		v.refs[k] = ref
		v.mu.Unlock()
	}
	if d := math.Abs(r.Checksum - ref.checksum); d > 1e-4*ref.absSum+1e-3 {
		return fmt.Errorf("checksum %v, reference %v", r.Checksum, ref.checksum)
	}
	if len(r.Sample) != 4 {
		return fmt.Errorf("sample has %d values", len(r.Sample))
	}
	for i, x := range r.Sample {
		if d := math.Abs(float64(x - ref.sample[i])); d > 1e-3*math.Max(1, math.Abs(float64(ref.sample[i]))) {
			return fmt.Errorf("sample[%d] %v, reference %v", i, x, ref.sample[i])
		}
	}
	return nil
}
