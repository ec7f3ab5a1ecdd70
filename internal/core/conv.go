package core

import (
	"fmt"

	"mikpoly/internal/engine"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/winograd"
)

// ConvAlgo identifies a convolution lowering.
type ConvAlgo int

const (
	// AlgoIm2col is the implicit-GEMM path the paper evaluates (§5.1).
	AlgoIm2col ConvAlgo = iota
	// AlgoWinograd is the F(2×2, 3×3) fast-convolution path (§7).
	AlgoWinograd
)

func (a ConvAlgo) String() string {
	switch a {
	case AlgoIm2col:
		return "im2col"
	case AlgoWinograd:
		return "winograd"
	default:
		return fmt.Sprintf("ConvAlgo(%d)", int(a))
	}
}

// ConvPlan is a compiled convolution: the chosen algorithm, its polymerized
// GEMM program, and the predicted cost of both candidates.
type ConvPlan struct {
	Shape tensor.ConvShape
	Algo  ConvAlgo
	// Program is the polymerized GEMM program of the chosen path (the
	// single implicit GEMM, or the batched per-transform-point GEMM).
	Program *poly.Program
	// Im2colCycles and WinogradCycles are the simulated costs of each
	// candidate (WinogradCycles is +Inf when inapplicable).
	Im2colCycles   float64
	WinogradCycles float64

	lowering winograd.Lowering
}

// PlanConv selects the faster convolution algorithm for the runtime shape —
// the dispatch role cuDNN's heuristics play, here driven by the simulated
// cost of each MikPoly-planned candidate.
func (c *Compiler) PlanConv(cs tensor.ConvShape) (*ConvPlan, error) {
	if !cs.Valid() {
		return nil, fmt.Errorf("core: invalid conv shape %v", cs)
	}
	h := c.lib.HW

	im2colProg, err := c.Plan(cs.GemmShape())
	if err != nil {
		return nil, err
	}
	plan := &ConvPlan{
		Shape:          cs,
		Algo:           AlgoIm2col,
		Program:        im2colProg,
		Im2colCycles:   im2colProg.Simulate(h).Cycles,
		WinogradCycles: 0,
	}

	if winograd.Applicable(cs) {
		low, err := winograd.Lower(cs, h.InputBytes)
		if err != nil {
			return nil, err
		}
		wProg, err := c.Plan(low.Gemm)
		if err != nil {
			return nil, err
		}
		batched := sim.AppendRepeat(nil, wProg.Tasks(h), low.Count)
		plan.WinogradCycles = sim.Run(h, batched).Cycles + low.TransformBytes/h.GlobalBytesPerCycle
		if plan.WinogradCycles < plan.Im2colCycles {
			plan.Algo = AlgoWinograd
			plan.Program = wProg
			plan.lowering = low
		}
	}
	return plan, nil
}

// SimCycles returns the chosen path's simulated cost.
func (p *ConvPlan) SimCycles() float64 {
	if p.Algo == AlgoWinograd {
		return p.WinogradCycles
	}
	return p.Im2colCycles
}

// GroupedConvPlan is a compiled grouped convolution: one polymerized
// per-group GEMM launched Groups times as a batch.
type GroupedConvPlan struct {
	Shape   tensor.GroupedConvShape
	Program *poly.Program
	// Cycles is the simulated cost of the batched launch.
	Cycles float64
}

// PlanGroupedConv plans a grouped convolution: the per-group implicit GEMM
// is polymerized once and its tasks replicate across groups in a single
// batched launch (groups are independent, so their grids co-schedule).
func (c *Compiler) PlanGroupedConv(gs tensor.GroupedConvShape) (*GroupedConvPlan, error) {
	if !gs.Valid() {
		return nil, fmt.Errorf("core: invalid grouped conv shape %v", gs)
	}
	prog, err := c.Plan(gs.GroupGemmShape())
	if err != nil {
		return nil, err
	}
	h := c.lib.HW
	return &GroupedConvPlan{
		Shape:   gs,
		Program: prog,
		Cycles:  sim.Run(h, sim.AppendRepeat(nil, prog.Tasks(h), gs.Groups)).Cycles,
	}, nil
}

// GroupedConv plans and executes a grouped convolution numerically. Filters
// are OutC × (InC/Groups) × KH × KW.
func (c *Compiler) GroupedConv(in, filters *tensor.Tensor4, gs tensor.GroupedConvShape) (*tensor.Tensor4, error) {
	plan, err := c.PlanGroupedConv(gs)
	if err != nil {
		return nil, err
	}
	s := gs.Conv
	oh, ow := s.OutDims()
	out := tensor.NewTensor4(s.Batch, s.OutC, oh, ow)
	groupShape := gs.GroupShape()
	for g := 0; g < gs.Groups; g++ {
		gi := tensor.ExtractGroup(in, gs, g)
		gw := tensor.ExtractGroupFilters(filters, gs, g)
		gout, err := engine.ExecuteConv(plan.Program, gi, gw, groupShape)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		tensor.MergeGroupOutput(out, gout, gs, g)
	}
	return out, nil
}

// ConvAuto plans with algorithm selection and executes the chosen path
// numerically.
func (c *Compiler) ConvAuto(in, filters *tensor.Tensor4, cs tensor.ConvShape) (*tensor.Tensor4, ConvAlgo, error) {
	plan, err := c.PlanConv(cs)
	if err != nil {
		return nil, 0, err
	}
	switch plan.Algo {
	case AlgoWinograd:
		out, err := winograd.Conv(in, filters, cs)
		return out, plan.Algo, err
	default:
		out, err := engine.ExecuteConv(plan.Program, in, filters, cs)
		return out, plan.Algo, err
	}
}
