package bench

import (
	"fmt"

	"mikpoly/internal/baseline"
	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/stats"
	"mikpoly/internal/tensor"
)

// graphEval computes a model graph's end-to-end latency under one system:
// simulated cycles for every GEMM/conv operator (cached per distinct shape)
// plus bandwidth-bound cycles for the non-GEMM work, plus — when an overhead
// probe is supplied — the wall-clock cost of the online compilation stage
// once per distinct shape, converted to device cycles (the paper includes
// MikPoly's cost-model overhead in its e2e latencies, §5.2.2).
type graphEval struct {
	h        hw.Hardware
	plan     planFn
	overhead func(tensor.GemmShape) float64 // extra cycles, once per shape
	simCache map[batchKey]float64
}

// batchKey caches simulated cost per (shape, batch count): repeated
// operators (per-head attention GEMMs, grouped launches) dispatch as one
// batched grid whose tasks co-schedule, not as Count sequential launches.
type batchKey struct {
	s tensor.GemmShape
	n int
}

func newGraphEval(h hw.Hardware, plan planFn) *graphEval {
	return &graphEval{h: h, plan: plan, simCache: make(map[batchKey]float64)}
}

// mikpolyEval wires a MikPoly compiler in with online-overhead accounting.
func mikpolyEval(c *core.Compiler) *graphEval {
	e := newGraphEval(c.Hardware(), c.Plan)
	e.overhead = func(s tensor.GemmShape) float64 {
		_, st, err := c.PlanUncached(s)
		if err != nil {
			return 0
		}
		return st.ModeledOverheadCycles()
	}
	return e
}

// latency returns the graph's total cycles, or an error if any operator
// cannot be planned (an invalid inference run).
func (e *graphEval) latency(g nn.Graph) (float64, error) {
	var total float64
	for _, op := range g.Ops {
		switch op.Kind {
		case nn.OpOther:
			total += op.OtherCycles(e.h) * float64(op.Count)
		default:
			key := batchKey{s: op.Gemm, n: op.Count}
			cycles, ok := e.simCache[key]
			if !ok {
				prog, err := e.plan(op.Gemm)
				if err != nil {
					return 0, fmt.Errorf("graph %s op %s: %w", g.Name, op.Name, err)
				}
				cycles = sim.Run(e.h, sim.AppendRepeat(nil, prog.Tasks(e.h), op.Count)).Cycles
				e.simCache[key] = cycles
				if e.overhead != nil {
					total += e.overhead(op.Gemm)
				}
			}
			total += cycles
		}
	}
	return total, nil
}

// Fig8 reproduces Figure 8: end-to-end language-model inference on the GPU
// across 150 sentence lengths in [5, 500] (paper: MikPoly over
// cuBLAS-backed baselines — BERT 1.39x, DistilBERT 1.38x, RoBERTa 1.36x,
// ALBERT 1.37x; CUTLASS consistently below MikPoly).
func Fig8(cfg Config) (*Table, error) {
	h := hw.A100()
	mik, err := mikpolyGPU()
	if err != nil {
		return nil, err
	}
	cublas := baseline.CuBLAS(h)
	cutlass := baseline.NewCutlass(h)

	t := &Table{
		ID:     "fig8",
		Title:  "End-to-end language-model inference on GPU (dynamic sequence length)",
		Header: []string{"model", "MikPoly-vs-cuBLAS", "CUTLASS-vs-cuBLAS", "inputs"},
	}
	seqs := nn.SequenceLengths()[:cfg.seqCount()]
	for _, mcfg := range nn.LanguageModels() {
		mikEval := mikpolyEval(mik)
		vEval := newGraphEval(h, cublas.Plan)
		cEval := newGraphEval(h, cutlass.Plan)
		var spdMik, spdCut []float64
		for _, seq := range seqs {
			g := nn.Transformer(mcfg, seq, 1)
			lm, err := mikEval.latency(g)
			if err != nil {
				return nil, err
			}
			lv, err := vEval.latency(g)
			if err != nil {
				return nil, err
			}
			lc, err := cEval.latency(g)
			if err != nil {
				return nil, err
			}
			spdMik = append(spdMik, lv/lm)
			spdCut = append(spdCut, lv/lc)
		}
		t.AddRow(mcfg.Name, stats.Mean(spdMik), stats.Mean(spdCut), len(seqs))
	}
	return t, nil
}

// Fig9 reproduces Figure 9 (GPU) and the §5.2.2 NPU numbers: end-to-end CNN
// inference across batch sizes 2^0..2^7 and resolutions 64·i (paper GPU:
// AlexNet 1.34x, GoogLeNet 1.69x, ResNet 1.59x, VGG 1.22x; NPU: 1.30/1.19/
// 1.32/1.38x vs CANN).
func Fig9(cfg Config, npu bool) (*Table, error) {
	var (
		h        hw.Hardware
		mik      *core.Compiler
		convPlan planFn
		gemmPlan planFn
		baseName string
		err      error
	)
	if npu {
		h = hw.Ascend910()
		mik, err = mikpolyNPU()
		if err != nil {
			return nil, err
		}
		convPlan = baseline.CANNConv(h).Plan
		gemmPlan = baseline.CANN(h).Plan
		baseName = "CANN"
	} else {
		h = hw.A100()
		mik, err = mikpolyGPU()
		if err != nil {
			return nil, err
		}
		convPlan = baseline.CuDNN(h).Plan
		gemmPlan = baseline.CuBLAS(h).Plan
		baseName = "cuDNN/cuBLAS"
	}

	batches := nn.CNNBatchSizes()
	resolutions := nn.CNNResolutions()
	if cfg.Quick {
		batches = []int{1, 8, 64}
		resolutions = []int{64, 192, 448}
	}

	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("End-to-end CNN inference (dynamic batch & resolution) vs %s", baseName),
		Header: []string{"model", "MikPoly speedup", "max", "min", "configs"},
	}
	if npu {
		t.ID = "fig9-npu"
	}
	models := []string{"alexnet", "googlenet", "resnet18", "vgg11"}
	builders := nn.CNNModels()
	for _, name := range models {
		build := builders[name]
		mikEval := mikpolyEval(mik)
		// The vendor stack dispatches convolutions to the conv library
		// and FC layers to the GEMM library.
		vEvalConv := newGraphEval(h, convPlan)
		vEvalGemm := newGraphEval(h, gemmPlan)
		var spd []float64
		for _, b := range batches {
			for _, r := range resolutions {
				g := build(b, r)
				lm, err := mikEval.latency(g)
				if err != nil {
					return nil, err
				}
				lv, err := vendorCNNLatency(g, h, vEvalConv, vEvalGemm)
				if err != nil {
					return nil, err
				}
				spd = append(spd, lv/lm)
			}
		}
		s := stats.Summarize(spd)
		t.AddRow(name, s.Mean, s.Max, s.Min, s.N)
	}
	return t, nil
}

// vendorCNNLatency evaluates a CNN graph under the vendor stack, routing
// conv ops to the conv library and GEMM ops to the GEMM library.
func vendorCNNLatency(g nn.Graph, h hw.Hardware, convEval, gemmEval *graphEval) (float64, error) {
	var total float64
	for _, op := range g.Ops {
		sub := nn.Graph{Name: g.Name, Ops: []nn.Op{op}}
		var e *graphEval
		switch op.Kind {
		case nn.OpConv:
			e = convEval
		case nn.OpGemm:
			e = gemmEval
		default:
			total += op.OtherCycles(h) * float64(op.Count)
			continue
		}
		c, err := e.latency(sub)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Table5 reproduces Table 5: end-to-end language models against the
// range-restricted compilers on CUDA cores. DietCode and Nimble were tuned
// for a declared sequence range; sentences outside it are invalid runs
// (paper: MikPoly ≈1.55x over DietCode with zero invalid runs of its own,
// DietCode/Nimble with numerous invalid runs).
func Table5(cfg Config) (*Table, error) {
	h := hw.A100CUDACores()
	mik, err := mikpolyCUDA()
	if err != nil {
		return nil, err
	}
	// The declared ranges assume the deployment default seq ∈ [8, 256];
	// the evaluation feeds lengths in [5, 500].
	ranges := baseline.Ranges{
		M: baseline.Range{Lo: 8, Hi: 256},
		N: baseline.Range{Lo: 8, Hi: 8192},
		K: baseline.Range{Lo: 8, Hi: 8192},
	}
	diet, err := baseline.NewDietCode(mik.Library(), ranges)
	if err != nil {
		return nil, err
	}
	nim, err := baseline.NewNimble(mik.Library(), ranges)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "table5",
		Title: "End-to-end language models vs range-restricted compilers (CUDA cores)",
		Header: []string{"model", "MikPoly-vs-DietCode", "MikPoly-vs-Nimble",
			"DietCode-invalid", "Nimble-invalid", "MikPoly-invalid", "inputs"},
	}
	seqs := nn.SequenceLengths()[:cfg.seqCount()]
	for _, mcfg := range nn.LanguageModels() {
		mikEval := mikpolyEval(mik)
		dEval := newGraphEval(h, diet.Plan)
		nEval := newGraphEval(h, nim.Plan)
		var vsDiet, vsNim []float64
		dietInvalid, nimInvalid, mikInvalid := 0, 0, 0
		for _, seq := range seqs {
			g := nn.Transformer(mcfg, seq, 1)
			lm, err := mikEval.latency(g)
			if err != nil {
				mikInvalid++
				continue
			}
			if ld, err := dEval.latency(g); err != nil {
				dietInvalid++
			} else {
				vsDiet = append(vsDiet, ld/lm)
			}
			if ln, err := nEval.latency(g); err != nil {
				nimInvalid++
			} else {
				vsNim = append(vsNim, ln/lm)
			}
		}
		t.AddRow(mcfg.Name, stats.Mean(vsDiet), stats.Mean(vsNim),
			dietInvalid, nimInvalid, mikInvalid, len(seqs))
	}
	t.Note("declared seq range [8,256], evaluated lengths [5,500]; invalid = whole-inference failures")
	return t, nil
}
