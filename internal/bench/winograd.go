package bench

import (
	"mikpoly/internal/baseline"
	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/stats"
	"mikpoly/internal/tensor"
	"mikpoly/internal/winograd"
	"mikpoly/internal/workload"
)

// winogradCycles evaluates the Winograd path: the 16 per-transform-point
// GEMMs launch as one batched grid (their tasks co-schedule on the device),
// plus the fused transform streaming traffic.
func winogradCycles(mik *core.Compiler, h hw.Hardware, s tensor.ConvShape) (float64, error) {
	low, err := winograd.Lower(s, h.InputBytes)
	if err != nil {
		return 0, err
	}
	prog, err := mik.Plan(low.Gemm)
	if err != nil {
		return 0, err
	}
	res := sim.Run(h, sim.AppendRepeat(nil, prog.Tasks(h), low.Count))
	return res.Cycles + low.TransformBytes/h.GlobalBytesPerCycle, nil
}

// AblationWinograd compares the implicit-GEMM convolution path against the
// Winograd F(2×2, 3×3) lowering (the paper's named future-work direction,
// §7) on the stride-1 3×3 cases of Table 4. Both paths plan their GEMMs with
// MikPoly; Winograd trades 2.25× less multiply work for transform traffic
// and 16 skinnier GEMMs, so it wins on compute-bound channel-heavy layers
// and loses on small-channel layers where K = InC is tiny.
func AblationWinograd(cfg Config) (*Table, error) {
	h := hw.A100()
	mik, err := mikpolyGPU()
	if err != nil {
		return nil, err
	}
	cudnn := baseline.CuDNN(h)

	n := 120
	if !cfg.Quick {
		n = 600
	}
	var spdOverIm2col, spdOverVendor []float64
	wins := 0
	for _, c := range workload.SubsampleConv(workload.Table4Suite(), n) {
		s := c.Shape
		if !winograd.Applicable(s) {
			continue
		}
		// Implicit-GEMM path.
		im2col, err := simCycles(mik.Plan, h, s.GemmShape())
		if err != nil {
			return nil, err
		}
		// Winograd path: 16 batched GEMMs + fused transform traffic.
		wino, err := winogradCycles(mik, h, s)
		if err != nil {
			return nil, err
		}
		// Vendor reference.
		vendor, err := simCycles(cudnn.Plan, h, s.GemmShape())
		if err != nil {
			return nil, err
		}
		spdOverIm2col = append(spdOverIm2col, im2col/wino)
		spdOverVendor = append(spdOverVendor, vendor/wino)
		if wino < im2col {
			wins++
		}
	}

	t := &Table{
		ID:     "ablation-winograd",
		Title:  "Winograd F(2x2,3x3) vs implicit-GEMM convolution (stride-1 3x3 cases)",
		Header: []string{"comparison", "mean", "geomean", "max", "min", "cases"},
	}
	for _, row := range []struct {
		name string
		s    stats.Summary
	}{
		{"Winograd vs MikPoly-im2col", stats.Summarize(spdOverIm2col)},
		{"Winograd vs cuDNN", stats.Summarize(spdOverVendor)},
	} {
		t.AddRow(row.name, row.s.Mean, row.s.Geomean, row.s.Max, row.s.Min, row.s.N)
	}
	t.Note("Winograd faster on %d/%d applicable Table 4 cases (its channel counts are small); both paths plan GEMMs with MikPoly", wins, len(spdOverIm2col))

	// Channel-heavy production layers — the regime libraries actually
	// dispatch to Winograd — shown individually to expose the crossover.
	heavy := []struct {
		name string
		s    tensor.ConvShape
	}{
		{"vgg-conv3 b8 c256", tensor.ConvShape{Batch: 8, InC: 256, InH: 56, InW: 56, OutC: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{"vgg-conv5 b8 c512", tensor.ConvShape{Batch: 8, InC: 512, InH: 28, InW: 28, OutC: 512, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{"resnet-l3 b16 c256", tensor.ConvShape{Batch: 16, InC: 256, InH: 14, InW: 14, OutC: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	}
	for _, hc := range heavy {
		im2col, err := simCycles(mik.Plan, h, hc.s.GemmShape())
		if err != nil {
			return nil, err
		}
		wino, err := winogradCycles(mik, h, hc.s)
		if err != nil {
			return nil, err
		}
		ratio := im2col / wino
		t.AddRow(hc.name, ratio, ratio, ratio, ratio, 1)
	}
	return t, nil
}
